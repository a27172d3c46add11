let check_nonempty name a =
  if Array.length a = 0 then invalid_arg (name ^ ": empty input")

(* The kernels below are plain loops over float arrays: no closure
   captures a float ref, so the accumulators stay unboxed and the
   only allocation is the result.  Each performs the floating-point
   operations of the plain list-and-closure formulation in the same
   order, so results match it bit for bit (test_numkit keeps that
   formulation as its oracle). *)

(* Kahan summation: measurement vectors mix magnitudes freely.  The
   step adds [y +. s], not [s +. y]: with two NaN operands x86-64 keeps
   the first one's payload, and the closure form (where [!s] is a
   memory operand, which the compiler moves to second place) adds in
   this order, so NaN results agree with it bit for bit too. *)
let[@inline] sum a =
  let s = ref 0.0 and c = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let y = a.(i) -. !c in
    let t = y +. !s in
    c := t -. !s -. y;
    s := t
  done;
  !s

let mean a =
  check_nonempty "Stats.mean" a;
  sum a /. float_of_int (Array.length a)

let variance a =
  check_nonempty "Stats.variance" a;
  let m = mean a in
  let acc = Array.map (fun x -> (x -. m) *. (x -. m)) a in
  sum acc /. float_of_int (Array.length a)

let stddev a = sqrt (variance a)

let sorted_copy a =
  let b = Array.copy a in
  (* Float.compare orders exactly as polymorphic compare (NaN first,
     -0. = 0.), without the generic comparison's dispatch. *)
  Array.sort Float.compare b;
  b

let median a =
  check_nonempty "Stats.median" a;
  let b = sorted_copy a in
  let n = Array.length b in
  if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0

let quantile a q =
  check_nonempty "Stats.quantile" a;
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q out of range";
  let b = sorted_copy a in
  let n = Array.length b in
  if n = 1 then b.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let frac = pos -. float_of_int i in
    if i >= n - 1 then b.(n - 1) else b.(i) +. (frac *. (b.(i + 1) -. b.(i)))
  end

(* Eq. 4 for one pair of length [n] with means [mu1], [mu2]: the
   squared differences are Kahan-summed in index order, as {!sum}
   does. *)
let[@inline] pair_rnmse m1 m2 n mu1 mu2 =
  (* Counter readings are non-negative, so a non-positive mean product
     only arises when a mean is zero (the paper's 100%-error rule) or
     the inputs are not counts at all; both get maximal variability. *)
  if mu1 *. mu2 <= 0.0 then 1.0
  else begin
    let s = ref 0.0 and c = ref 0.0 in
    for i = 0 to n - 1 do
      let d = m1.(i) -. m2.(i) in
      let y = (d *. d) -. !c in
      let t = y +. !s in
      c := t -. !s -. y;
      s := t
    done;
    sqrt !s /. sqrt (float_of_int n *. mu1 *. mu2)
  end

let rnmse m1 m2 =
  let n = Array.length m1 in
  if n = 0 || n <> Array.length m2 then invalid_arg "Stats.rnmse: length mismatch";
  pair_rnmse m1 m2 n (mean m1) (mean m2)

(* [rnmse] of every unordered pair (i < j), in (i, j) row-major order,
   with each repetition's mean computed once.  Fails as the first
   mismatched pair would. *)
let pairwise_rnmse reps =
  let reps = Array.of_list reps in
  let k = Array.length reps in
  if k < 2 then [||]
  else begin
    let n = Array.length reps.(0) in
    if n = 0 || Array.exists (fun r -> Array.length r <> n) reps then
      invalid_arg "Stats.rnmse: length mismatch";
    let mu = Array.map mean reps in
    let out = Array.make (k * (k - 1) / 2) 0.0 in
    let p = ref 0 in
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        out.(!p) <- pair_rnmse reps.(i) reps.(j) n mu.(i) mu.(j);
        incr p
      done
    done;
    out
  end

let max_rnmse reps =
  let pairs = pairwise_rnmse reps in
  let worst = ref 0.0 in
  for p = 0 to Array.length pairs - 1 do
    (* [not (v <= worst)] instead of [v > worst] so a NaN (corrupt
       reading) propagates instead of being silently dropped. *)
    if not (pairs.(p) <= !worst) then worst := pairs.(p)
  done;
  !worst

let mean_rnmse reps =
  let pairs = pairwise_rnmse reps in
  let total = ref 0.0 in
  for p = 0 to Array.length pairs - 1 do
    total := !total +. pairs.(p)
  done;
  if Array.length pairs = 0 then 0.0
  else !total /. float_of_int (Array.length pairs)

let max_relative_range reps =
  match reps with
  | [] | [ _ ] -> 0.0
  | first :: _ ->
    let reps = Array.of_list reps in
    let k = Array.length reps in
    let worst = ref 0.0 in
    for i = 0 to Array.length first - 1 do
      let lo = ref infinity and hi = ref neg_infinity and total = ref 0.0 in
      for r = 0 to k - 1 do
        let x = reps.(r).(i) in
        lo := Float.min !lo x;
        hi := Float.max !hi x;
        total := !total +. x
      done;
      let mu = !total /. float_of_int k in
      let range = !hi -. !lo in
      let rel =
        if range = 0.0 then 0.0 else if mu = 0.0 then 1.0 else range /. mu
      in
      if not (rel <= !worst) then worst := rel
    done;
    !worst

let mad a =
  let m = median a in
  median (Array.map (fun x -> Float.abs (x -. m)) a)

(* One column buffer serves every element; [f] must not keep it. *)
let elementwise f vs =
  match vs with
  | [] -> invalid_arg "Stats.elementwise: empty list"
  | first :: _ ->
    let n = Array.length first in
    List.iter
      (fun v ->
        if Array.length v <> n then invalid_arg "Stats.elementwise: ragged input")
      vs;
    let vs = Array.of_list vs in
    let col = Array.make (Array.length vs) 0.0 and out = Array.make n 0.0 in
    for i = 0 to n - 1 do
      for r = 0 to Array.length vs - 1 do
        col.(r) <- vs.(r).(i)
      done;
      out.(i) <- f col
    done;
    out

let elementwise_mean vs = elementwise mean vs
let elementwise_median vs = elementwise median vs

let all_zero a =
  let rec from i = i = Array.length a || (a.(i) = 0.0 && from (i + 1)) in
  from 0
