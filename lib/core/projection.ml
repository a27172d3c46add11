type projected = {
  event : Hwsim.Event.t;
  representation : Linalg.Vec.t;
  relative_residual : float;
  accepted : bool;
}

let residual_of basis ~x ~mean =
  let r =
    Linalg.Vec.sub (Linalg.Mat.mul_vec (Expectation.mat basis) x) mean
  in
  let mnorm = Linalg.Vec.norm2 mean in
  if mnorm = 0.0 then 0.0 else Linalg.Vec.norm2 r /. mnorm

let project_one basis ~mean =
  let diag = Expectation.diagnostics basis in
  if diag.Expectation.full_rank then begin
    let s = Linalg.Lstsq.solve (Expectation.mat basis) mean in
    (s.Linalg.Lstsq.x, s.Linalg.Lstsq.relative_residual)
  end
  else begin
    (* Degenerate basis (see Expectation.diagnostics): fall back to a
       rank-aware basic solution rather than dividing by a vanishing
       R diagonal. *)
    let s, _rank = Linalg.Lstsq.solve_rank_aware (Expectation.mat basis) mean in
    (s.Linalg.Lstsq.x, s.Linalg.Lstsq.relative_residual)
  end

let count_projected projected =
  if Obs.enabled () then begin
    let acc =
      List.length (List.filter (fun p -> p.accepted) projected)
    in
    Obs.add "projection.accepted" (float_of_int acc);
    Obs.add "projection.rejected" (float_of_int (List.length projected - acc))
  end;
  projected

let project ~tol basis classified =
  count_projected @@
  let diag = Expectation.diagnostics basis in
  if diag.Expectation.full_rank then begin
    (* Factor E once; every event then costs one orthogonal apply and
       one back-substitution. *)
    let f = Linalg.Qr.factor (Expectation.mat basis) in
    List.map
      (fun (c : Noise_filter.classified) ->
        let qtb = Linalg.Qr.apply_qt f c.mean in
        let x = Linalg.Qr.solve_r f qtb in
        let relative_residual = residual_of basis ~x ~mean:c.mean in
        {
          event = c.event;
          representation = x;
          relative_residual;
          accepted = relative_residual <= tol;
        })
      classified
  end
  else
    List.map
      (fun (c : Noise_filter.classified) ->
        let representation, relative_residual = project_one basis ~mean:c.mean in
        {
          event = c.event;
          representation;
          relative_residual;
          accepted = relative_residual <= tol;
        })
      classified

let accepted projected = List.filter (fun p -> p.accepted) projected

let to_matrix projected =
  let acc = accepted projected in
  if acc = [] then invalid_arg "Projection.to_matrix: no accepted events";
  let cols = Array.of_list (List.map (fun p -> p.representation) acc) in
  let names = Array.of_list (List.map (fun p -> p.event.Hwsim.Event.name) acc) in
  (Linalg.Mat.of_col_vecs cols, names)
