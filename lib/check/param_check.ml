(* Static analysis of the per-category pipeline parameters: the noise
   threshold tau of Eq. 4, the rounding tolerance alpha of Algorithm 2
   and its derived elimination threshold beta = ||(alpha,...,alpha)||,
   and the repetition count the pairwise RNMSE needs. *)

module D = Core.Diagnostic

let fnum = Jsonio.fnum

let diag ?category ?(data = []) rule severity subject fmt =
  Printf.ksprintf (fun msg -> D.make ?category ~data ~rule ~severity ~subject msg) fmt

(* The paper's tau regimes: the exact-count categories (CPU/GPU FLOPs,
   branches) use a value indistinguishable from zero noise, the data
   cache — whose replacement behavior is legitimately variable — an
   order-0.1 value (Section IV). *)
let tau_regime category =
  match category with
  | Some "dcache" -> Some (1e-3, 0.5)
  | Some "cpu-flops" | Some "gpu-flops" | Some "branch" -> Some (1e-12, 1e-6)
  | _ -> None

let check_tau ?category tau =
  if not (Float.is_finite tau) || tau <= 0.0 || tau >= 1.0 then
    [
      diag ?category
        ~data:[ ("tau", fnum tau) ]
        "param/tau-out-of-range" D.Error "tau"
        "noise threshold tau = %g is outside (0, 1): Eq. 4 variabilities \
         are relative errors, so every event would be %s"
        tau
        (if tau <= 0.0 then "rejected" else "kept");
    ]
  else
    match tau_regime category with
    | Some (lo, hi) when tau < lo || tau > hi ->
      [
        diag ?category
          ~data:[ ("tau", fnum tau); ("regime_lo", fnum lo);
                  ("regime_hi", fnum hi) ]
          "param/tau-regime" D.Warn "tau"
          "tau = %g is outside the paper's regime [%g, %g] for this \
           category: the noise filter will keep (or reject) events the \
           paper's analysis would not"
          tau lo hi;
      ]
    | _ -> []

let check_alpha ?category alpha =
  if not (Float.is_finite alpha) || alpha <= 0.0 || alpha >= 1.0 then
    [
      diag ?category
        ~data:[ ("alpha", fnum alpha) ]
        "param/alpha-out-of-range" D.Error "alpha"
        "rounding tolerance alpha = %g is outside (0, 1): Algorithm 2's \
         grid R(u) = alpha*floor(u/alpha + 0.5) %s"
        alpha
        (if alpha <= 0.0 then "is undefined" else "would round away the data");
    ]
  else []

(* Algorithm 2 prescribes beta = ||(alpha, ..., alpha)|| over the
   benchmark rows.  Computed literally — a norm of the alpha-filled
   vector — so this check is independent of Special_qrcp.beta's
   closed form and catches drift in either. *)
let expected_beta ~alpha ~rows =
  let v = Linalg.Vec.create rows in
  Linalg.Vec.fill v alpha;
  Linalg.Vec.norm2 v

let check_beta ?category ~alpha ~rows beta =
  if rows <= 0 then []
  else
    let expected = expected_beta ~alpha ~rows in
    let tol = 1e-12 *. Float.max 1.0 (Float.abs expected) in
    if Float.abs (beta -. expected) > tol then
      [
        diag ?category
          ~data:[ ("beta", fnum beta); ("expected", fnum expected);
                  ("alpha", fnum alpha); ("rows", fnum (float_of_int rows)) ]
          "param/beta-mismatch" D.Error "beta"
          "elimination threshold beta = %.17g but Algorithm 2 requires \
           ||(alpha,...,alpha)|| = %.17g for alpha = %g over %d rows"
          beta expected alpha rows;
      ]
    else []

let check_projection_tol ?category tol =
  if not (Float.is_finite tol) || tol <= 0.0 || tol >= 1.0 then
    [
      diag ?category
        ~data:[ ("projection_tol", fnum tol) ]
        "param/projection-tol-out-of-range" D.Error "projection-tol"
        "projection tolerance %g is outside (0, 1): relative residuals \
         live in [0, 1], so %s event would be representable"
        tol
        (if tol <= 0.0 then "no" else "every");
    ]
  else []

let check_reps ?category reps =
  if reps < 2 then
    [
      diag ?category
        ~data:[ ("reps", fnum (float_of_int reps)) ]
        "param/reps-too-few" D.Error "reps"
        "reps = %d: the pairwise RNMSE of Eq. 4 needs at least 2 \
         repetition vectors per event"
        reps;
    ]
  else []

(* The jobs count is pipeline configuration like tau or alpha: reject
   impossible values as typed diagnostics, and flag the shape that
   buys less than it asks for — more workers than shards leaves the
   surplus without a shard to run (a warning, not an error: the run is
   still correct, and dcache activity generation still uses every
   domain). *)
let check_jobs ?category ?shards jobs =
  if jobs < 1 then
    [
      diag ?category
        ~data:[ ("jobs", fnum (float_of_int jobs)) ]
        "param/unknown-jobs" D.Error "jobs"
        "jobs = %d: the executor needs at least one domain (--jobs 1 is \
         the sequential reference)"
        jobs;
    ]
  else
    match shards with
    | Some s when s >= 1 && jobs > s ->
      [
        diag ?category
          ~data:
            [
              ("jobs", fnum (float_of_int jobs));
              ("shards", fnum (float_of_int s));
            ]
          "param/unknown-jobs" D.Warn "jobs"
          "jobs = %d exceeds the %d shard(s) of the front: the extra \
           domains get no shard to collect or classify"
          jobs s;
      ]
    | _ -> []

let analyze ?category ?beta ~(config : Core.Pipeline.config) ~rows () =
  let beta =
    match beta with
    | Some b -> b
    | None -> Core.Special_qrcp.beta ~alpha:config.Core.Pipeline.alpha ~rows
  in
  check_tau ?category config.Core.Pipeline.tau
  @ check_alpha ?category config.Core.Pipeline.alpha
  @ check_beta ?category ~alpha:config.Core.Pipeline.alpha ~rows beta
  @ check_projection_tol ?category config.Core.Pipeline.projection_tol
  @ check_reps ?category config.Core.Pipeline.reps
