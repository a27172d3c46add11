type metric_def = {
  metric : string;
  combination : Combination.t;
  error : float;
  residual_norm : float;
}

let define ~xhat ~names ~signature ~metric =
  if Array.length names <> Linalg.Mat.cols xhat then
    invalid_arg "Metric_solver.define: names/columns mismatch";
  if Array.length names = 0 then begin
    (* No independent events survived: every non-trivial metric is
       uncomposable, with the maximum backward error. *)
    let snorm = Linalg.Vec.norm2 signature in
    {
      metric;
      combination = [];
      error = (if snorm = 0.0 then 0.0 else 1.0);
      residual_norm = snorm;
    }
  end
  else begin
    let solution, error = Linalg.Lstsq.solve_with_error xhat signature in
    let combination =
      Array.to_list
        (Array.mapi (fun j name -> (Linalg.Vec.get solution.Linalg.Lstsq.x j, name)) names)
    in
    {
      metric;
      combination;
      error;
      residual_norm = solution.Linalg.Lstsq.residual_norm;
    }
  end

let define_all ~xhat ~names ~basis signatures =
  List.map
    (fun (s : Signature.t) ->
      define ~xhat ~names ~signature:(Signature.to_vector s basis) ~metric:s.metric)
    signatures

let well_defined ?(threshold = 1e-6) def = def.error < threshold

let display_combination def =
  if well_defined ~threshold:1e-3 def then
    Combination.drop_negligible ~eps:1e-6 def.combination
  else def.combination
