type report = {
  metric : string;
  app : string;
  predicted : float;
  ground_truth : float;
  relative_error : float;
}

(* One sweep over the combination's events: its readings and noise
   draws are counted once, after the fold. *)
let evaluate_combination comb ~catalog ~seed activity =
  let readings = ref 0 and draws = ref 0 in
  let value =
    List.fold_left
      (fun acc (c, name) ->
        if Float.abs c <= 1e-12 then acc
        else begin
          let event =
            List.find (fun (e : Hwsim.Event.t) -> e.Hwsim.Event.name = name) catalog
          in
          let reading = Hwsim.Machine.measure ~seed ~rep:0 ~row:0 event activity in
          incr readings;
          draws := !draws + Hwsim.Noise_model.draws event.Hwsim.Event.noise;
          acc +. (c *. reading)
        end)
      0.0 comb
  in
  Hwsim.Machine.count_readings ~readings:!readings ~draws:!draws;
  value

let validate ~(metric : Metric_solver.metric_def) ~catalog ~truth ~apps =
  List.map
    (fun (app : Cat_bench.App_workloads.t) ->
      let predicted =
        evaluate_combination metric.Metric_solver.combination ~catalog
          ~seed:("validate/" ^ app.Cat_bench.App_workloads.name)
          app.Cat_bench.App_workloads.activity
      in
      let ground_truth = truth app in
      {
        metric = metric.Metric_solver.metric;
        app = app.Cat_bench.App_workloads.name;
        predicted;
        ground_truth;
        relative_error =
          Float.abs (predicted -. ground_truth)
          /. Float.max 1.0 (Float.abs ground_truth);
      })
    apps

let validate_cpu_flops_metrics (result : Pipeline.result) apps =
  let catalog = Hwsim.Catalog_sapphire_rapids.events in
  let cases =
    [
      ("SP Ops.", Cat_bench.App_workloads.true_ops ~precision:Hwsim.Keys.Single);
      ("DP Ops.", Cat_bench.App_workloads.true_ops ~precision:Hwsim.Keys.Double);
      ("SP Instrs.", Cat_bench.App_workloads.true_instrs ~precision:Hwsim.Keys.Single);
      ("DP Instrs.", Cat_bench.App_workloads.true_instrs ~precision:Hwsim.Keys.Double);
    ]
  in
  List.concat_map
    (fun (name, truth) ->
      validate ~metric:(Pipeline.metric result name) ~catalog ~truth ~apps)
    cases

let max_relative_error reports =
  List.fold_left (fun acc r -> Float.max acc r.relative_error) 0.0 reports

let pp_report ppf r =
  Format.fprintf ppf "%-14s %-16s predicted %14.1f truth %14.1f (err %.2e)"
    r.metric r.app r.predicted r.ground_truth r.relative_error
