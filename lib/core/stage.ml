(* The staged pipeline: typed stage boundaries with shard-parallel
   front stages and serializable inter-stage artifacts.

   dataset_shard -> classified_shard -> merged classified list ->
   projection -> QRCP -> metrics

   Everything up to the merge depends only on an event's own readings
   (its measurement vectors and its Eq. 4 noise verdict), so
   collection and noise filtering shard by catalog range; projection
   onwards needs the whole accepted set and runs once, downstream of
   the merge.  The sequential path (Pipeline.run, a thin driver over
   this module) remains the bit-exact reference: a sharded run must
   produce byte-identical chosen events, metric definitions and
   provenance ledger. *)

type config = {
  tau : float;
  alpha : float;
  projection_tol : float;
  reps : int;
}

let default_config category =
  {
    tau = Category.tau category;
    alpha = Category.alpha category;
    projection_tol = Category.projection_tol category;
    reps = Cat_bench.Dataset.default_reps;
  }

(* ------------------------------------------------------------------ *)
(* Optional pre-flight gate                                            *)
(*                                                                     *)
(* lib/check sits above core in the dependency order, so the static    *)
(* analyzer cannot be called by name from here; the caller passes it   *)
(* in as the run context's [preflight] (Check.gate_lint).  The lint is *)
(* read-only over declarative inputs (zero kernel executions), so      *)
(* enabling it on clean inputs changes no pipeline output.             *)
(* ------------------------------------------------------------------ *)

exception Preflight_failed of Diagnostic.t list

type fates = { events : int; all_zero : int; too_noisy : int; kept : int }

exception No_accepted_events of fates

let preflight_check (run : Run.t) category =
  Option.map
    (fun lint ->
      let diags = lint category in
      let errors = Diagnostic.errors diags in
      if errors <> [] then raise (Preflight_failed errors);
      {
        Obs.Manifest.errors = Diagnostic.count Diagnostic.Error diags;
        warns = Diagnostic.count Diagnostic.Warn diags;
        infos = Diagnostic.count Diagnostic.Info diags;
      })
    run.preflight

type result = {
  category : Category.t;
  config : config;
  basis : Expectation.t;
  basis_diagnostics : Expectation.diagnostics;
  classified : Noise_filter.classified list;
  projected : Projection.projected list;
  x : Linalg.Mat.t;
  x_names : string array;
  chosen : int array;
  chosen_names : string array;
  xhat : Linalg.Mat.t;
  metrics : Metric_solver.metric_def list;
  mutable ledger : Provenance.Ledger.t option;
}

(* ------------------------------------------------------------------ *)
(* Shard geometry                                                      *)
(* ------------------------------------------------------------------ *)

type range = { lo : int; hi : int }

let range_pp { lo; hi } = Printf.sprintf "[%d,%d)" lo hi

let shard_ranges ~shards ~total =
  if shards < 1 then invalid_arg "Stage.shard_ranges: shards < 1";
  if total < 0 then invalid_arg "Stage.shard_ranges: total < 0";
  let base = total / shards and rem = total mod shards in
  List.init shards (fun i ->
      let lo = (i * base) + min i rem in
      let hi = lo + base + if i < rem then 1 else 0 in
      { lo; hi })

(* ------------------------------------------------------------------ *)
(* Front stages: per-shard collection and classification               *)
(* ------------------------------------------------------------------ *)

type dataset_shard = {
  shard_range : range;
  catalog_events : int;  (* events in the whole catalog *)
  dataset : Cat_bench.Dataset.t;  (* only events in shard_range *)
}

type classified_shard = {
  category : string;
  machine : string;
  shard_config : config;
  range : range;
  total : int;
  row_labels : string array;
  measure : string;
  entries : Noise_filter.classified list;  (* catalog order within range *)
}

let collect_shard ?(reps = Cat_bench.Dataset.default_reps) category range =
  let total = Category.catalog_size category in
  if range.lo < 0 || range.hi < range.lo || range.hi > total then
    invalid_arg
      (Printf.sprintf "Stage.collect_shard: range %s outside [0,%d)"
         (range_pp range) total);
  let dataset =
    Obs.span "shard-collect" (fun () ->
        if Obs.enabled () then begin
          Obs.attr_str "category" (Category.name category);
          Obs.attr_int "lo" range.lo;
          Obs.attr_int "hi" range.hi
        end;
        Category.dataset_range ~reps ~lo:range.lo ~hi:range.hi category)
  in
  { shard_range = range; catalog_events = total; dataset }

let classify_shard ~config ~category (ds : dataset_shard) =
  let entries =
    Obs.span "shard-classify" (fun () ->
        if Obs.enabled () then begin
          Obs.attr_int "lo" ds.shard_range.lo;
          Obs.attr_int "hi" ds.shard_range.hi
        end;
        let entries = Noise_filter.classify ~tau:config.tau ds.dataset in
        if Obs.enabled () then begin
          Obs.add "shard.events" (float_of_int (List.length entries));
          Obs.add "shard.kept"
            (float_of_int (Noise_filter.count entries Noise_filter.Kept))
        end;
        entries)
  in
  {
    category = Category.name category;
    machine = Category.machine category;
    shard_config = config;
    range = ds.shard_range;
    total = ds.catalog_events;
    row_labels = ds.dataset.Cat_bench.Dataset.row_labels;
    measure = Noise_filter.measure_name Noise_filter.Max_rnmse;
    entries;
  }

(* ------------------------------------------------------------------ *)
(* Merge stage                                                         *)
(* ------------------------------------------------------------------ *)

let config_equal a b =
  Float.equal a.tau b.tau && Float.equal a.alpha b.alpha
  && Float.equal a.projection_tol b.projection_tol
  && a.reps = b.reps

let merge_shards shards =
  match shards with
  | [] -> Error "no shards to merge"
  | first :: _ ->
    let sorted =
      List.sort (fun a b -> compare (a.range.lo, a.range.hi) (b.range.lo, b.range.hi)) shards
    in
    let rec check_headers = function
      | [] -> Ok ()
      | s :: rest ->
        if s.category <> first.category then
          Error
            (Printf.sprintf "category mismatch: %s vs %s" first.category
               s.category)
        else if s.machine <> first.machine then
          Error
            (Printf.sprintf "machine mismatch: %s vs %s" first.machine
               s.machine)
        else if not (config_equal s.shard_config first.shard_config) then
          Error "config mismatch (tau/alpha/projection_tol/reps differ)"
        else if s.total <> first.total then
          Error
            (Printf.sprintf "catalog size mismatch: %d vs %d" first.total
               s.total)
        else if s.row_labels <> first.row_labels then
          Error "benchmark row labels mismatch"
        else if s.measure <> first.measure then
          Error
            (Printf.sprintf "variability measure mismatch: %s vs %s"
               first.measure s.measure)
        else if List.length s.entries <> s.range.hi - s.range.lo then
          Error
            (Printf.sprintf
               "shard %s carries %d entries for a %d-event range"
               (range_pp s.range) (List.length s.entries)
               (s.range.hi - s.range.lo))
        else check_headers rest
    in
    let rec check_coverage expected = function
      | [] ->
        if expected = first.total then Ok ()
        else
          Error
            (Printf.sprintf "coverage gap: events [%d,%d) missing" expected
               first.total)
      | s :: rest ->
        if s.range.lo > expected then
          Error
            (Printf.sprintf "coverage gap: events [%d,%d) missing" expected
               s.range.lo)
        else if s.range.lo < expected then
          Error
            (Printf.sprintf "overlapping shard ranges at event %d (range %s)"
               s.range.lo (range_pp s.range))
        else check_coverage s.range.hi rest
    in
    let check_duplicates entries =
      let seen = Hashtbl.create 128 in
      let rec go = function
        | [] -> Ok ()
        | (c : Noise_filter.classified) :: rest ->
          let name = c.event.Hwsim.Event.name in
          if Hashtbl.mem seen name then
            Error (Printf.sprintf "duplicate event name across shards: %s" name)
          else begin
            Hashtbl.add seen name ();
            go rest
          end
      in
      go entries
    in
    let open Jsonio.Decode in
    let* () = check_headers sorted in
    let* () = check_coverage 0 sorted in
    let entries = List.concat_map (fun s -> s.entries) sorted in
    let* () = check_duplicates entries in
    Ok { first with range = { lo = 0; hi = first.total }; entries }

(* ------------------------------------------------------------------ *)
(* Downstream stages (projection -> QRCP -> metrics), run once          *)
(* ------------------------------------------------------------------ *)

let publish_ledger_counters (l : Provenance.Ledger.t) =
  if Obs.enabled () then begin
    let t = Provenance.Ledger.totals l in
    let f = float_of_int in
    Obs.add "ledger.events" (f t.events);
    Obs.add "ledger.all_zero" (f t.all_zero);
    Obs.add "ledger.noisy" (f t.noisy);
    Obs.add "ledger.kept" (f t.kept);
    Obs.add "ledger.unrepresentable" (f t.unrepresentable);
    Obs.add "ledger.accepted" (f t.accepted);
    Obs.add "ledger.eliminated" (f t.eliminated);
    Obs.add "ledger.chosen" (f t.chosen)
  end

let classify ~config dataset =
  Obs.span "noise-filter" (fun () ->
      Noise_filter.classify ~tau:config.tau dataset)

(* Every verdict in the ledger is recoverable from the stage outputs the
   result carries, plus the QRCP's pick rounds and leftovers, which the
   caller passes from its Special_qrcp.factor_full call. *)
let assemble_ledger (r : result) ~steps ~leftovers =
  let module L = Provenance.Ledger in
  let proj_by_name = Hashtbl.create 64 in
  List.iter
    (fun (p : Projection.projected) ->
      Hashtbl.replace proj_by_name p.event.Hwsim.Event.name
        {
          L.residual = p.relative_residual;
          tol = r.config.projection_tol;
          accepted = p.accepted;
          representation = Linalg.Vec.to_array p.representation;
        })
    r.projected;
  let qrcp_by_name = Hashtbl.create 64 in
  List.iteri
    (fun i (s : Special_qrcp.step) ->
      Hashtbl.replace qrcp_by_name r.x_names.(s.pick)
        (L.Picked
           {
             round = i + 1;
             score = s.score;
             trailing_norm = s.trailing_norm;
             candidates = s.candidates;
             runner_up = Option.map (fun c -> r.x_names.(c)) s.runner_up;
             runner_up_score = s.runner_up_score;
           }))
    steps;
  let beta =
    Special_qrcp.beta ~alpha:r.config.alpha ~rows:(Linalg.Mat.rows r.x)
  in
  List.iter
    (fun (l : Special_qrcp.leftover) ->
      Hashtbl.replace qrcp_by_name r.x_names.(l.col)
        (L.Dropped
           { reason = l.reason; final_norm = l.final_norm; beta }))
    leftovers;
  let members_by_name = Hashtbl.create 64 in
  List.iter
    (fun (d : Metric_solver.metric_def) ->
      List.iter
        (fun (coef, event) ->
          let cell =
            match Hashtbl.find_opt members_by_name event with
            | Some c -> c
            | None ->
              let c = ref [] in
              Hashtbl.add members_by_name event c;
              c
          in
          cell := (d.metric, coef) :: !cell)
        d.combination)
    r.metrics;
  let entries =
    List.map
      (fun (c : Noise_filter.classified) ->
        let name = c.event.Hwsim.Event.name in
        {
          L.event = name;
          description = c.event.Hwsim.Event.description;
          noise =
            {
              measure = Noise_filter.measure_name Noise_filter.Max_rnmse;
              variability = c.variability;
              tau = r.config.tau;
              status = Noise_filter.provenance_status c.status;
            };
          projection = Hashtbl.find_opt proj_by_name name;
          qrcp = Hashtbl.find_opt qrcp_by_name name;
          memberships =
            (match Hashtbl.find_opt members_by_name name with
            | Some cell -> List.rev !cell
            | None -> []);
        })
      r.classified
  in
  {
    L.version = L.schema_version;
    category = Category.name r.category;
    machine = Category.machine r.category;
    tau = r.config.tau;
    alpha = r.config.alpha;
    projection_tol = r.config.projection_tol;
    basis_labels = Expectation.labels r.basis;
    entries;
  }

let downstream ?(record_ledger = false) ~config ~category ~basis ~signatures
    ~classified () =
  let projected, (x, x_names) =
    Obs.span "projection" (fun () ->
        let projected =
          Projection.project ~tol:config.projection_tol basis
            (Noise_filter.kept classified)
        in
        if Projection.accepted projected = [] then begin
          let count = Noise_filter.count classified in
          raise
            (No_accepted_events
               {
                 events = List.length classified;
                 all_zero = count Noise_filter.All_zero;
                 too_noisy = count Noise_filter.Too_noisy;
                 kept = count Noise_filter.Kept;
               })
        end;
        (projected, Projection.to_matrix projected))
  in
  let qr, steps, leftovers =
    Obs.span "qrcp" (fun () -> Special_qrcp.factor_full ~alpha:config.alpha x)
  in
  let chosen = Array.sub qr.Special_qrcp.perm 0 qr.Special_qrcp.rank in
  let chosen_names = Array.map (fun j -> x_names.(j)) chosen in
  let xhat = Linalg.Mat.select_cols x chosen in
  let metrics =
    Obs.span "metric-solve" (fun () ->
        Metric_solver.define_all ~xhat ~names:chosen_names ~basis signatures)
  in
  if Obs.enabled () then Obs.add "pipeline.metrics_defined" (float_of_int (List.length metrics));
  let r =
    {
      category;
      config;
      basis;
      basis_diagnostics = Expectation.diagnostics basis;
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
  in
  if record_ledger then begin
    let l = assemble_ledger r ~steps ~leftovers in
    publish_ledger_counters l;
    r.ledger <- Some l
  end;
  r

(* ------------------------------------------------------------------ *)
(* Run manifests                                                       *)
(*                                                                     *)
(* When the run context carries a manifest sink (analyze --manifest,   *)
(* the bench harness), every run scopes a Recorder sink around itself, *)
(* snapshots it into a schema-versioned Obs.Manifest.t — config        *)
(* digest, per-stage span timings + latency histograms + GC deltas,    *)
(* counters/gauges, ledger fate totals, the lint summary and content   *)
(* hashes of any shard/ledger artifacts — and hands it to the sink.    *)
(* Without one the drivers below run [f] and nothing else.             *)
(* ------------------------------------------------------------------ *)

let fate_totals (r : result) =
  let events = List.length r.classified in
  let kept = Noise_filter.count r.classified Noise_filter.Kept in
  let noisy = Noise_filter.count r.classified Noise_filter.Too_noisy in
  let all_zero = Noise_filter.count r.classified Noise_filter.All_zero in
  let accepted = List.length r.projected in
  let chosen = Array.length r.chosen in
  let f = float_of_int in
  [
    ("events", f events);
    ("all_zero", f all_zero);
    ("noisy", f noisy);
    ("kept", f kept);
    ("accepted", f accepted);
    ("unrepresentable", f (kept - accepted));
    ("eliminated", f (accepted - chosen));
    ("chosen", f chosen);
  ]

let config_pairs ~category ~config ~shards ~jobs (r : result) =
  let g = Printf.sprintf "%.17g" in
  [
    ("category", Category.name category);
    ("machine", Category.machine category);
    (* Constant; kept so config digests and store index entries stay
       byte-identical with manifests that predate it. *)
    ("backend", "floatarray");
    (* Runs at different concurrency diff as config drift even though
       their outputs are byte-identical. *)
    ("jobs", string_of_int jobs);
    ("tau", g config.tau);
    ("alpha", g config.alpha);
    ( "beta",
      g (Special_qrcp.beta ~alpha:config.alpha ~rows:(Linalg.Mat.rows r.x)) );
    ("projection_tol", g config.projection_tol);
    ("reps", string_of_int config.reps);
    ("shards", string_of_int shards);
  ]

let gc_pairs (d : Obs.Gc_sample.t) =
  let f = float_of_int in
  [
    ("minor_words", d.Obs.Gc_sample.minor_words);
    ("promoted_words", d.Obs.Gc_sample.promoted_words);
    ("major_words", d.Obs.Gc_sample.major_words);
    ("minor_collections", f d.Obs.Gc_sample.minor_collections);
    ("major_collections", f d.Obs.Gc_sample.major_collections);
    ("compactions", f d.Obs.Gc_sample.compactions);
    ("heap_words", f d.Obs.Gc_sample.heap_words);
    ("top_heap_words", f d.Obs.Gc_sample.top_heap_words);
  ]

let with_manifest ~(run : Run.t) ~source ~category ~config ~shards ?jobs
    ?(gate = false) f =
  let jobs =
    match jobs with Some j -> j | None -> Executor.jobs (Executor.default ())
  in
  match run.manifest with
  | None ->
    if gate then ignore (preflight_check run category);
    f None
  | Some emit ->
    let artifacts = ref [] in
    let note name json =
      artifacts :=
        (name, Obs.Manifest.fnv64_hex (Jsonio.to_string json)) :: !artifacts
    in
    let recorder = Obs.Recorder.create () in
    let sink = Obs.Recorder.sink recorder in
    Obs.install sink;
    let gc_before = Obs.Gc_sample.take () in
    let lint, r =
      try
        let lint = if gate then preflight_check run category else None in
        let r = f (Some note) in
        (lint, r)
      with e ->
        Obs.uninstall sink;
        raise e
    in
    let gc_delta =
      Obs.Gc_sample.delta ~before:gc_before ~after:(Obs.Gc_sample.take ())
    in
    Option.iter (fun l -> note "ledger" (Provenance.Ledger.to_json l)) r.ledger;
    Obs.uninstall sink;
    let m =
      Obs.Manifest.of_recorder ~source ~label:(Category.name category)
        ~config:(config_pairs ~category ~config ~shards ~jobs r)
        ~totals:(fate_totals r) ~gc:(gc_pairs gc_delta) ?lint
        ~artifacts:(List.rev !artifacts) recorder
    in
    emit m;
    r

(* ------------------------------------------------------------------ *)
(* Shard artifact JSON (versioned, non-finite-safe)                    *)
(* ------------------------------------------------------------------ *)

let shard_schema_version = 1

let status_name = Noise_filter.status_name

let status_of_name = function
  | "kept" -> Some Noise_filter.Kept
  | "too-noisy" -> Some Noise_filter.Too_noisy
  | "all-zero" -> Some Noise_filter.All_zero
  | _ -> None

let shard_to_json (s : classified_shard) =
  let entry_json (c : Noise_filter.classified) =
    Jsonio.Obj
      [
        ("event", Jsonio.Str c.event.Hwsim.Event.name);
        ("description", Jsonio.Str c.event.Hwsim.Event.description);
        ("status", Jsonio.Str (status_name c.status));
        ("variability", Jsonio.fnum c.variability);
        ( "mean",
          Jsonio.List
            (Array.to_list
               (Array.map Jsonio.fnum (Linalg.Vec.to_array c.mean))) );
      ]
  in
  Jsonio.Obj
    [
      ("schema_version", Jsonio.Num (float_of_int shard_schema_version));
      ("kind", Jsonio.Str "classified-shard");
      ("category", Jsonio.Str s.category);
      ("machine", Jsonio.Str s.machine);
      ( "config",
        Jsonio.Obj
          [
            ("tau", Jsonio.fnum s.shard_config.tau);
            ("alpha", Jsonio.fnum s.shard_config.alpha);
            ("projection_tol", Jsonio.fnum s.shard_config.projection_tol);
            ("reps", Jsonio.Num (float_of_int s.shard_config.reps));
          ] );
      ( "range",
        Jsonio.Obj
          [
            ("lo", Jsonio.Num (float_of_int s.range.lo));
            ("hi", Jsonio.Num (float_of_int s.range.hi));
          ] );
      ("catalog_events", Jsonio.Num (float_of_int s.total));
      ( "row_labels",
        Jsonio.List
          (Array.to_list (Array.map (fun l -> Jsonio.Str l) s.row_labels)) );
      ("measure", Jsonio.Str s.measure);
      ("events", Jsonio.List (List.map entry_json s.entries));
    ]

(* Strict decode through Jsonio.Decode: a missing or mistyped field is
   an error naming the field, so artifacts from drifted builds fail
   loudly rather than merge quietly. *)

open Jsonio.Decode

let entry_of_json ~rows json =
  let* event = str "shard entry" "event" json in
  let ctx = "event " ^ event in
  let* description = str ctx "description" json in
  let* status_s = str ctx "status" json in
  let* status =
    match status_of_name status_s with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "%s: unknown status %S" ctx status_s)
  in
  let* variability = fnum ctx "variability" json in
  let* mean =
    list_of Jsonio.fnum_opt ~bad:"mean entry is not a number" ctx "mean" json
  in
  if List.length mean <> rows then
    Error
      (Printf.sprintf "%s: mean has %d entries for %d benchmark rows" ctx
         (List.length mean) rows)
  else
    (* Reconstructed events are opaque named events, exactly like a
       CSV import of real measurements: the downstream stages only
       ever use names, descriptions and the numbers. *)
    Ok
      {
        Noise_filter.event = Hwsim.Event.make ~name:event ~desc:description [];
        variability;
        mean = Linalg.Vec.of_array (Array.of_list mean);
        status;
      }

let shard_of_json json =
  let ctx = "classified-shard" in
  let* () =
    header ~doc:"shard" ~kind:"classified-shard"
      ~version:shard_schema_version ctx json
  in
  let* category = str ctx "category" json in
  let* machine = str ctx "machine" json in
  let* config_j = field ctx "config" json in
  let* tau = fnum ctx "tau" config_j in
  let* alpha = fnum ctx "alpha" config_j in
  let* projection_tol = fnum ctx "projection_tol" config_j in
  let* reps = int ctx "reps" config_j in
  let* range_j = field ctx "range" json in
  let* lo = int ctx "lo" range_j in
  let* hi = int ctx "hi" range_j in
  let* total = int ctx "catalog_events" json in
  let* labels =
    list_of Jsonio.to_string_opt ~bad:"row label is not a string" ctx
      "row_labels" json
  in
  let* measure = str ctx "measure" json in
  let* events = list ctx "events" json in
  let rows = List.length labels in
  let* entries = map_result (entry_of_json ~rows) events in
  if lo < 0 || hi < lo || hi > total then
    Error (Printf.sprintf "%s: bad range [%d,%d) of %d" ctx lo hi total)
  else if List.length entries <> hi - lo then
    Error
      (Printf.sprintf "%s: %d entries for a %d-event range" ctx
         (List.length entries) (hi - lo))
  else
    Ok
      {
        category;
        machine;
        shard_config = { tau; alpha; projection_tol; reps };
        range = { lo; hi };
        total;
        row_labels = Array.of_list labels;
        measure;
        entries;
      }

let shard_equal a b =
  let feq = Float.equal in
  let entry_equal (x : Noise_filter.classified) (y : Noise_filter.classified) =
    x.event.Hwsim.Event.name = y.event.Hwsim.Event.name
    && x.event.Hwsim.Event.description = y.event.Hwsim.Event.description
    && feq x.variability y.variability
    && x.status = y.status
    &&
    let xv = Linalg.Vec.to_array x.mean and yv = Linalg.Vec.to_array y.mean in
    Array.length xv = Array.length yv && Array.for_all2 feq xv yv
  in
  a.category = b.category && a.machine = b.machine
  && config_equal a.shard_config b.shard_config
  && a.range = b.range && a.total = b.total
  && a.row_labels = b.row_labels && a.measure = b.measure
  && List.equal entry_equal a.entries b.entries

(* ------------------------------------------------------------------ *)
(* Sharded drivers                                                     *)
(* ------------------------------------------------------------------ *)

(* [note] is the manifest's artifact accumulator when one is being
   collected: each incoming shard artifact is content-hashed (its
   canonical JSON) before it is touched, so the manifest proves which
   inputs the run consumed.  Without it nothing is serialized. *)
let merge_and_downstream ~(run : Run.t) ~note ~category shards =
  Option.iter
    (fun note ->
      List.iter
        (fun s -> note ("shard" ^ range_pp s.range) (shard_to_json s))
        shards)
    note;
  let merged =
    match
      Obs.span "shard-merge" (fun () ->
          if Obs.enabled () then
            Obs.attr_int "shards" (List.length shards);
          merge_shards shards)
    with
    | Ok m -> m
    | Error msg -> invalid_arg ("Stage.run_merged: " ^ msg)
  in
  if merged.category <> Category.name category then
    invalid_arg
      (Printf.sprintf "Stage.run_merged: shards are for category %s, not %s"
         merged.category (Category.name category));
  if merged.machine <> Category.machine category then
    invalid_arg
      (Printf.sprintf "Stage.run_merged: shards are for machine %s, not %s"
         merged.machine (Category.machine category));
  downstream ~record_ledger:run.record_ledger ~config:merged.shard_config
    ~category ~basis:(Category.basis category)
    ~signatures:(Category.signatures category) ~classified:merged.entries ()

let run_merged ?(run = Run.default) ~category shards =
  match shards with
  | [] -> merge_and_downstream ~run ~note:None ~category shards (* raises *)
  | first :: _ ->
    with_manifest ~run ~source:"pipeline-merge" ~category
      ~config:first.shard_config ~shards:(List.length shards) (fun note ->
        merge_and_downstream ~run ~note ~category shards)

(* DESIGN.md §11's counter contract, asserted at runtime whenever the
   collector is live: across one sharded front, the shard.events /
   shard.kept deltas must equal the catalog size and the
   noise_filter.kept delta (Noise_filter.classify runs per shard, so the
   noise_filter.* deltas are themselves the monolithic totals). *)
let check_shard_counter_invariant ~category ~before:(ev0, kp0, nf_kept0) =
  let d name v0 = Obs.counter name -. v0 in
  let d_events = d "shard.events" ev0 in
  let d_kept = d "shard.kept" kp0 in
  let d_nf_kept = d "noise_filter.kept" nf_kept0 in
  let total = float_of_int (Category.catalog_size category) in
  if not (Float.equal d_events total) then
    failwith
      (Printf.sprintf
         "Stage.run_sharded: counter invariant violated: shard.events \
          advanced by %g for a %g-event catalog"
         d_events total);
  if not (Float.equal d_kept d_nf_kept) then
    failwith
      (Printf.sprintf
         "Stage.run_sharded: counter invariant violated: shard.kept advanced \
          by %g but noise_filter.kept by %g"
         d_kept d_nf_kept)

(* Execute the collect+classify front over the shard ranges.

   [Seq] is the bit-exact reference: the same direct calls in index
   order the pre-executor code made, with no wrapping of any kind.

   [Domains] hands shards to the pool.  Workers call the collector
   directly: their spans are roots on their own domain, and counter
   deltas are whole numbers, so the totals (and therefore the
   shard-counter invariant and recorded manifests) match the
   sequential front.  Module-level caches a task could populate
   ([Dataset.dcache_activities]) are pre-forced here first, on the
   same executor, so workers only ever read them. *)
let run_front ~config ~category ~executor ~shards ranges =
  let work range =
    classify_shard ~config ~category
      (collect_shard ~reps:config.reps category range)
  in
  match executor with
  | Executor.Seq ->
    let classified =
      List.mapi
        (fun i range ->
          Obs.Progress.note_shard ~index:i ~total:shards;
          work range)
        ranges
    in
    Obs.Progress.note_shard ~index:shards ~total:shards;
    classified
  | Executor.Domains _ as e ->
    Category.prewarm ~executor:e ~reps:config.reps category;
    Obs.Progress.note_front ~total:shards ~jobs:(Executor.jobs e);
    let arr = Array.of_list ranges in
    Array.to_list
      (Executor.map ~executor:e (Array.length arr) (fun i -> work arr.(i)))

let run_sharded ?(run = Run.default) ?config ?executor ~shards category =
  let config =
    match config with Some c -> c | None -> default_config category
  in
  let executor =
    match executor with Some e -> e | None -> Executor.default ()
  in
  with_manifest ~run ~source:"pipeline" ~category ~config ~shards
    ~jobs:(Executor.jobs executor) ~gate:true (fun note ->
      Obs.span "pipeline" (fun () ->
          Obs.attr_str "category" (Category.name category);
          if Obs.enabled () then Obs.attr_int "shards" shards;
          let ranges =
            shard_ranges ~shards ~total:(Category.catalog_size category)
          in
          let before =
            if Obs.enabled () then
              Some
                ( Obs.counter "shard.events",
                  Obs.counter "shard.kept",
                  Obs.counter "noise_filter.kept" )
            else None
          in
          (* Progress taps: shard boundaries go straight to any
             installed progress sink (a no-op otherwise) rather than
             through a gauge, so manifests recorded without --progress
             stay byte-identical. *)
          let classified_shards =
            run_front ~config ~category ~executor ~shards ranges
          in
          (match before with
          | Some b -> check_shard_counter_invariant ~category ~before:b
          | None -> ());
          merge_and_downstream ~run ~note ~category classified_shards))
