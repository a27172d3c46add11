(* One traced pass of one benchmark invocation, decomposed into calls
   to each layer's public functions.  Spans are kept in memory and
   written once, as one JSON line on stdout, when the pass ends.

   Usage: layer_trace WORKLOAD CATEGORY CSV PROBES
     WORKLOAD  sim-light | dcache-sharded | csv-scaled
     CATEGORY  the category the invocation analyzes
     CSV       the input file of csv-scaled ("-" otherwise)
     PROBES    1 to also time, outside the pass, every layer the
               workload's own pass does not reach, so that each run
               reports every layer *)

module Stage = Core.Stage
module Category = Core.Category
module Dataset = Cat_bench.Dataset

(* ---- In-memory spans ---------------------------------------------- *)

type stat = {
  mutable calls : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable self_words : float;
}

(* Spans are tabled by phase: "startup" (simulators that module
   initialization runs), "pass" (the invocation) and "probes". *)
let phase = ref "startup"
let stats : (string * string, stat) Hashtbl.t = Hashtbl.create 32
let order = ref []

(* One frame per open span: the time and minor words its children
   took, subtracted from its own to give self figures. *)
type frame = { mutable child_s : float; mutable child_words : float }

let stack : frame list ref = ref []

let stat name =
  let key = (!phase, name) in
  match Hashtbl.find_opt stats key with
  | Some s -> s
  | None ->
    let s = { calls = 0; total_s = 0.; self_s = 0.; self_words = 0. } in
    Hashtbl.add stats key s;
    order := key :: !order;
    s

let record name ~dt ~self_s ~self_words =
  let s = stat name in
  s.calls <- s.calls + 1;
  s.total_s <- s.total_s +. dt;
  s.self_s <- s.self_s +. self_s;
  s.self_words <- s.self_words +. self_words

(* Work timed on a worker domain: it counts towards the layer's calls,
   time and words, but not as a child of the open span, whose own
   wall time already covers it. *)
let add_busy name ~dt ~words = record name ~dt ~self_s:dt ~self_words:words

let timed f =
  let t0 = Unix.gettimeofday () and w0 = Gc.minor_words () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0, Gc.minor_words () -. w0)

let span name f =
  let frame = { child_s = 0.; child_words = 0. } in
  stack := frame :: !stack;
  let t0 = Unix.gettimeofday () and w0 = Gc.minor_words () in
  let r = Fun.protect ~finally:(fun () -> stack := List.tl !stack) f in
  let dt = Unix.gettimeofday () -. t0 and dw = Gc.minor_words () -. w0 in
  (match !stack with
  | parent :: _ ->
    parent.child_s <- parent.child_s +. dt;
    parent.child_words <- parent.child_words +. dw
  | [] -> ());
  record name ~dt ~self_s:(dt -. frame.child_s) ~self_words:(dw -. frame.child_words);
  r

let counts : (string * string * float) list ref = ref []
let count name v = counts := (!phase, name, v) :: !counts

(* ---- Layers ------------------------------------------------------- *)

let reps = Dataset.default_reps

(* The three simulators run at module initialization, so every
   process has paid for them before [main]; these calls repeat that
   work explicitly to split the start-up cost by simulator. *)
let simulators () =
  span "cpusim" (fun () ->
      List.iter
        (fun (k : Cat_bench.Flops_kernels.kernel) ->
          Array.iter
            (fun payload ->
              ignore
                (Cpusim.Core_model.execute
                   [
                     Cpusim.Program.flops_microkernel_loop
                       ~precision:k.precision ~width:k.width ~fma:k.fma
                       ~payload ~trips:Cat_bench.Flops_kernels.iterations;
                   ]))
            k.loop_payloads)
        Cat_bench.Flops_kernels.kernels);
  span "gpusim" (fun () ->
      let module G = Cat_bench.Gpu_kernels in
      List.iter
        (fun ((op : Hwsim.Keys.gpu_op), (precision : Hwsim.Keys.gpu_precision)) ->
          let op =
            match op with
            | Add -> Gpusim.Isa.Vadd
            | Sub -> Gpusim.Isa.Vsub
            | Mul -> Gpusim.Isa.Vmul
            | Trans -> Gpusim.Isa.Vtrans
            | Fma -> Gpusim.Isa.Vfma
          in
          let precision =
            match precision with
            | F16 -> Gpusim.Isa.F16
            | F32 -> Gpusim.Isa.F32
            | F64 -> Gpusim.Isa.F64
          in
          Array.iter
            (fun unroll ->
              let kernel =
                Gpusim.Kernel.flops_kernel ~op ~precision ~unroll
                  ~iterations:G.iterations ~wavefronts:G.wavefronts
              in
              Gpusim.Device.run (Gpusim.Device.create ()) kernel;
              ignore (Gpusim.Scheduler.simulate kernel))
            G.unrolls)
        G.pairs);
  span "branchsim" (fun () ->
      ignore
        (Cat_bench.Branch_kernels.rows_with_predictor
           Cat_bench.Branch_kernels.predictor_kind))

(* The activity cache is not visible from outside [Cat_bench], so the
   calls and accesses are nominal: what [prewarm] makes from the kernel
   constants, not counted as it runs. *)
let cachesim () =
  span "cachesim" (fun () -> Category.prewarm ~reps Category.Dcache);
  let calls =
    reps * List.length Cat_bench.Cache_kernels.configs * Cat_bench.Cache_kernels.threads
  in
  count "cachesim.calls" (float_of_int calls);
  count "cachesim.accesses" (float_of_int (calls * Cat_bench.Cache_kernels.accesses))

(* Readings are the values of the returned dataset; for the data cache
   each value is the median of its 8 measuring threads' readings, a
   nominal factor taken from the kernel constants. *)
let readings category =
  let n = Category.catalog_size category in
  let d = span "hwsim" (fun () -> Category.dataset_range ~reps ~lo:0 ~hi:n category) in
  let per_value = if category = Category.Dcache then Cat_bench.Cache_kernels.threads else 1 in
  let values =
    List.fold_left
      (fun acc (m : Dataset.measurement) ->
        List.fold_left (fun acc rep -> acc + Array.length rep) acc m.reps)
      0 d.Dataset.measurements
  in
  count "hwsim.readings" (float_of_int (values * per_value));
  d

let csv_parse ~name text =
  let d = span "csv" (fun () -> Dataset.of_reps_csv ~name text) in
  count "csv.bytes" (float_of_int (String.length text));
  d

(* The shard front of [analyze --shards 4 --jobs 2]: shards are
   collected and classified on two domains; each shard's collect and
   classify times are measured on the domain that ran it. *)
let sharded_front config category =
  Category.prewarm ~reps category;
  let ranges =
    Array.of_list (Stage.shard_ranges ~shards:4 ~total:(Category.catalog_size category))
  in
  let results =
    span "stage.front" (fun () ->
        Core.Exec.map ~executor:(Core.Exec.of_jobs 2) (Array.length ranges) (fun i ->
            let ds, collect_s, collect_w =
              timed (fun () -> Stage.collect_shard ~reps category ranges.(i))
            in
            let shard, classify_s, classify_w =
              timed (fun () -> Stage.classify_shard ~config ~category ds)
            in
            (shard, (collect_s, collect_w), (classify_s, classify_w))))
  in
  Array.iter
    (fun (_, (cs, cw), (ks, kw)) ->
      add_busy "stage.collect" ~dt:cs ~words:cw;
      add_busy "stage.classify" ~dt:ks ~words:kw)
    results;
  let shards = Array.to_list (Array.map (fun (s, _, _) -> s) results) in
  match span "stage.merge" (fun () -> Stage.merge_shards shards) with
  | Ok merged -> merged.entries
  | Error e -> failwith ("merge_shards: " ^ e)

(* The warm sharded dcache pipeline with each executor, as
   [analyze --shards 4 --jobs 1|2] runs it after its activity cache is
   filled.  One untimed run first, then the two executors alternate
   twice, so that neither pays alone for the heap the other left. *)
let executors () =
  Category.prewarm ~reps Category.Dcache;
  let run jobs =
    ignore (Stage.run_sharded ~executor:(Core.Exec.of_jobs jobs) ~shards:4 Category.Dcache)
  in
  run 1;
  let j2_gcs = ref 0 in
  for _ = 1 to 2 do
    span "executor.j1" (fun () -> run 1);
    let gcs0 = (Gc.quick_stat ()).minor_collections in
    span "executor.j2" (fun () -> run 2);
    j2_gcs := !j2_gcs + (Gc.quick_stat ()).minor_collections - gcs0
  done;
  count "executor.minor_gcs_j2" (float_of_int !j2_gcs /. 2.)

(* Projection -> QRCP -> metric solve, each as its own span, assembled
   into the result [Stage.downstream] would return. *)
let downstream (config : Stage.config) category classified =
  let basis = Category.basis category in
  let projected, (x, x_names) =
    span "projection" (fun () ->
        let p =
          Core.Projection.project ~tol:config.projection_tol basis
            (Core.Noise_filter.kept classified)
        in
        (p, Core.Projection.to_matrix p))
  in
  let qr = span "qrcp" (fun () -> Core.Special_qrcp.factor ~alpha:config.alpha x) in
  let chosen = Array.sub qr.perm 0 qr.rank in
  let chosen_names = Array.map (fun j -> x_names.(j)) chosen in
  let xhat = Linalg.Mat.select_cols x chosen in
  let metrics =
    span "metric_solve" (fun () ->
        Core.Metric_solver.define_all ~xhat ~names:chosen_names ~basis
          (Category.signatures category))
  in
  count "noise_filter.events" (float_of_int (List.length classified));
  count "noise_filter.kept" (float_of_int (List.length (Core.Noise_filter.kept classified)));
  count "projection.accepted" (float_of_int (Array.length x_names));
  count "qrcp.pivots" (float_of_int qr.rank);
  {
    Stage.category;
    config;
    basis;
    basis_diagnostics = Core.Expectation.diagnostics basis;
    classified;
    projected;
    x;
    x_names;
    chosen;
    chosen_names;
    xhat;
    metrics;
    ledger = None;
  }

(* What [analyze --show all] prints for the result. *)
let render category r =
  String.concat ""
    [
      Core.Report.filter_summary r;
      Core.Report.fig2_text r;
      Core.Report.signature_table category;
      Core.Report.chosen_events r;
      Core.Report.qrcp_trace r;
      Core.Report.metric_table r;
      (if category = Category.Dcache then Core.Report.fig3_text r else "");
      "\n";
    ]

(* ---- The pass ------------------------------------------------------ *)

let pass workload category csv =
  let config = Stage.default_config category in
  let classify ds = span "noise_filter" (fun () -> Stage.classify ~config ds) in
  let classified =
    match workload with
    | "sim-light" -> classify (readings category)
    | "dcache-sharded" ->
      (* As [--jobs 2] does, for the QRCP panel kernels too. *)
      Core.Exec.set_default (Core.Exec.of_jobs 2);
      cachesim ();
      sharded_front config category
    | "csv-scaled" ->
      let text = In_channel.with_open_bin csv In_channel.input_all in
      classify (csv_parse ~name:(Category.name category) text)
    | w -> failwith ("unknown workload " ^ w)
  in
  render category (downstream config category classified)

let probes workload =
  if workload <> "dcache-sharded" then begin
    cachesim ();
    ignore (sharded_front (Stage.default_config Category.Dcache) Category.Dcache)
  end;
  (match workload with
  | "csv-scaled" -> ignore (readings Category.Cpu_flops)
  | "dcache-sharded" ->
    (* The sharded pass classifies per shard; time the whole-catalog
       noise filter on the same data here. *)
    let d = readings Category.Dcache in
    ignore (span "noise_filter" (fun () ->
        Stage.classify ~config:(Stage.default_config Category.Dcache) d))
  | _ -> ());
  if workload <> "csv-scaled" then
    ignore (csv_parse ~name:"cpu-flops" (Dataset.reps_to_csv (Dataset.cpu_flops ())));
  executors ()

let json_of_stats () =
  List.rev !order
  |> List.map (fun ((phase, name) as key) ->
         let s = Hashtbl.find stats key in
         Printf.sprintf
           "{\"phase\": %S, \"name\": %S, \"calls\": %d, \"total_s\": %.9f, \"self_s\": %.9f, \"minor_words\": %.0f}"
           phase name s.calls s.total_s s.self_s s.self_words)
  |> String.concat ", "

let () =
  match Sys.argv with
  | [| _; workload; category; csv; with_probes |] ->
    let category = Category.of_name category in
    span "simulators" simulators;
    phase := "pass";
    let out = span "pass" (fun () -> pass workload category csv) in
    phase := "probes";
    if with_probes = "1" then span "probes" (fun () -> probes workload);
    let counts =
      List.rev !counts
      |> List.map (fun (phase, name, v) ->
             Printf.sprintf "{\"phase\": %S, \"name\": %S, \"value\": %.17g}" phase name v)
      |> String.concat ", "
    in
    Printf.printf "{\"digest\": %S, \"spans\": [%s], \"counts\": [%s]}\n"
      (Digest.to_hex (Digest.string out))
      (json_of_stats ()) counts
  | _ ->
    prerr_endline "usage: layer_trace WORKLOAD CATEGORY CSV PROBES";
    exit 2
