type result = {
  perm : int array;
  rank : int;
  scores : float array;
}

let round_value ~alpha u =
  if alpha <= 0.0 then invalid_arg "Special_qrcp.round_value: alpha <= 0";
  alpha *. Float.floor ((u /. alpha) +. 0.5)

let score_value v =
  let v = Float.abs v in
  if v = 0.0 then 0.0 else if v >= 1.0 then v else 1.0 /. v

(* Scoring streams the column through a no-copy view in ascending row
   order — the same accumulation order as a fold over a materialized
   column vector, so scores are bit-identical to the copying path. *)
let column_score_view ~alpha col =
  Linalg.Kernel.fold_left
    (fun acc u -> acc +. score_value (round_value ~alpha u))
    0.0 col

let column_score ~alpha col = column_score_view ~alpha (Linalg.Vec.view col)

let beta ~alpha ~rows = alpha *. sqrt (float_of_int rows)

type step = {
  pick : int;
  score : float;
  trailing_norm : float;
  candidates : int;
  runner_up : int option;
  runner_up_score : float option;
}

type leftover_reason = Provenance.Ledger.elimination_reason =
  | Below_beta
  | Rank_exhausted

type leftover = {
  col : int;
  final_norm : float;
  reason : leftover_reason;
}

(* get_pivot of Algorithm 2.  Scores are those of the {e original}
   rounded columns of X — the paper scores X once, up front ("after
   rounding the values in X, the pivoting scheme scores each column
   in X"), because the score measures how directly a raw event reads
   an ideal concept, a property of the event itself, not of its
   residual against previously chosen events.  Independence is
   enforced separately: a column whose trailing norm (after
   orthogonalization against the chosen set) falls below beta is in
   their span and stops being a candidate.  Ties on score fall back
   to the smallest trailing norm; norms equal up to floating-point
   fuzz resolve by original column index so selection is
   deterministic. *)
type candidate = { c_j : int; c_orig : int; c_score : float; c_norm : float }

let candidate_order a b =
  if a.c_score <> b.c_score then compare a.c_score b.c_score
  else begin
    let norm_ties =
      Float.abs (a.c_norm -. b.c_norm) <= 1e-9 *. Float.max a.c_norm b.c_norm
    in
    if norm_ties then compare a.c_orig b.c_orig else compare a.c_norm b.c_norm
  end

let get_pivot a ~perm ~scores0 ~from ~beta_threshold =
  let n = Linalg.Mat.cols a in
  (* One row-major pass over the trailing panel computes every
     candidate norm at once (identical accumulation order to a
     per-column walk). *)
  let norms = Linalg.Mat.trailing_col_norms a ~row0:from ~col0:from in
  let candidates = ref [] in
  for j = from to n - 1 do
    let norm = norms.(j - from) in
    if norm >= beta_threshold then
      candidates :=
        { c_j = j; c_orig = perm.(j); c_score = scores0.(perm.(j)); c_norm = norm }
        :: !candidates
  done;
  match List.sort candidate_order !candidates with
  | [] -> None
  | best :: rest ->
    Some
      ( best,
        {
          pick = best.c_orig;
          score = best.c_score;
          trailing_norm = best.c_norm;
          candidates = 1 + List.length rest;
          runner_up = (match rest with [] -> None | r :: _ -> Some r.c_orig);
          runner_up_score =
            (match rest with [] -> None | r :: _ -> Some r.c_score);
        } )

let factor_full ~alpha x =
  let m = Linalg.Mat.rows x and n = Linalg.Mat.cols x in
  if m = 0 || n = 0 then invalid_arg "Special_qrcp.factor: empty matrix";
  let a = Linalg.Mat.copy x in
  let perm = Array.init n (fun j -> j) in
  let scores0 =
    Array.init n (fun j -> column_score_view ~alpha (Linalg.Mat.col_view x j))
  in
  let steps = min m n in
  let scores = Array.make steps 0.0 in
  let beta_threshold = beta ~alpha ~rows:m in
  let rank = ref 0 in
  let trace = ref [] in
  (try
     for i = 0 to steps - 1 do
       match get_pivot a ~perm ~scores0 ~from:i ~beta_threshold with
       | None -> raise Exit
       | Some (best, step) ->
         let sp = Obs.begin_span "qrcp-pivot" in
         trace := step :: !trace;
         let pivot = best.c_j in
         Linalg.Mat.swap_cols a i pivot;
         let tmp = perm.(i) in
         perm.(i) <- perm.(pivot);
         perm.(pivot) <- tmp;
         scores.(i) <- step.score;
         (* Orthogonalize the trailing block against the pivot; the
            pivot column is read through a no-copy view. *)
         let h, beta_r =
           Linalg.Householder.of_view (Linalg.Mat.col_view ~row0:i a i)
         in
         Linalg.Mat.set a i i beta_r;
         for r = i + 1 to m - 1 do
           Linalg.Mat.set a r i 0.0
         done;
         Linalg.Householder.apply_to_cols h a ~row0:i ~col0:(i + 1);
         incr rank;
         if sp <> 0 then begin
           Obs.incr "qrcp.pivots";
           Obs.attr_int "step" (i + 1);
           Obs.attr_int "pick" step.pick;
           Obs.attr_float "score" step.score;
           Obs.attr_float "trailing_norm" step.trailing_norm;
           Obs.attr_int "candidates" step.candidates;
           (match step.runner_up with
            | Some r -> Obs.attr_int "runner_up" r
            | None -> Obs.attr_str "runner_up" "none");
           Obs.end_span sp
         end
     done
   with Exit -> ());
  let rank = !rank in
  (* Terminal verdicts for the columns the factorization did not pick.
     Reading the trailing panel's norms does not touch the
     factorization state, so picks and R are unaffected.  With
     [rank = m] the chosen columns span all of R^m and every residual
     is exactly zero — those columns simply ran out of pick rounds. *)
  let leftovers =
    if rank >= n then []
    else begin
      let at_full_rank = rank >= m in
      let norms =
        if at_full_rank then Array.make (n - rank) 0.0
        else Linalg.Mat.trailing_col_norms a ~row0:rank ~col0:rank
      in
      List.init (n - rank) (fun k ->
          let norm = norms.(k) in
          {
            col = perm.(rank + k);
            final_norm = norm;
            reason = (if at_full_rank then Rank_exhausted else Below_beta);
          })
    end
  in
  ( { perm; rank; scores = Array.sub scores 0 rank },
    List.rev !trace,
    leftovers )

let factor_traced ~alpha x =
  let r, steps, _ = factor_full ~alpha x in
  (r, steps)

let factor ~alpha x =
  let r, _, _ = factor_full ~alpha x in
  r

let chosen_columns ~alpha x =
  let r = factor ~alpha x in
  Array.sub r.perm 0 r.rank

let pp_trace ~names ppf steps =
  List.iteri
    (fun i (s : step) ->
      Format.fprintf ppf
        "step %2d: pick %s (score %.3g, trailing norm %.3g, %d candidates%s)@."
        (i + 1) names.(s.pick) s.score s.trailing_norm s.candidates
        (match s.runner_up with
         | Some r -> Printf.sprintf ", runner-up %s" names.(r)
         | None -> ""))
    steps
