type measurement = {
  event : Hwsim.Event.t;
  reps : float array list;
}

type t = {
  name : string;
  row_labels : string array;
  reps : int;
  measurements : measurement list;
}

let default_reps = 5

type bench = Cpu_flops | Branch | Gpu_flops | Zen_flops | Dcache

let base_name = function
  | Cpu_flops -> "cpu-flops"
  | Branch -> "branch"
  | Gpu_flops -> "gpu-flops"
  | Zen_flops -> "zen-flops"
  | Dcache -> "dcache"

let events = function
  | Cpu_flops | Branch | Dcache -> Hwsim.Catalog_sapphire_rapids.events
  | Gpu_flops -> Hwsim.Catalog_mi250x.events
  | Zen_flops -> Hwsim.Catalog_zen.events

let row_labels = function
  | Cpu_flops | Zen_flops -> Flops_kernels.row_labels
  | Branch -> Branch_kernels.row_labels
  | Gpu_flops -> Gpu_kernels.row_labels
  | Dcache -> Cache_kernels.row_labels

(* The one builder.  A reading is derived from (seed, event name,
   repetition, row) — see Hwsim.Machine — so measuring only the events
   in [lo, hi) yields bit-identical vectors to the whole-catalog
   build: a range is a restriction, never a re-randomization.
   [sweep ()] runs inside the span (it may fill the dcache activity
   cache) and returns the per-event measurement. *)
let build ?(lo = 0) ?hi ~name ~events ~row_labels ~reps sweep =
  let total = List.length events in
  let hi = Option.value hi ~default:total in
  if lo < 0 || hi < lo || hi > total then
    invalid_arg
      (Printf.sprintf "Dataset: bad event range [%d,%d) of a %d-event catalog"
         lo hi total);
  let events = List.filteri (fun i _ -> i >= lo && i < hi) events in
  let full = lo = 0 && hi = total in
  let name = if full then name else Printf.sprintf "%s[%d,%d)" name lo hi in
  Obs.span "dataset-build" @@ fun () ->
  Obs.attr_str "dataset" name;
  Obs.attr_int "reps" reps;
  if not full then begin
    Obs.attr_int "lo" lo;
    Obs.attr_int "hi" hi
  end;
  let measure = sweep () in
  let measurements =
    List.map
      (fun event ->
        if Obs.enabled () then begin
          Obs.incr "dataset.events_measured";
          Obs.add "dataset.repetitions" (float_of_int reps)
        end;
        { event; reps = measure event })
      events
  in
  { name; row_labels; reps; measurements }

let of_activities ~name ~seed ~reps ~events ~rows ~row_labels =
  if Array.length rows <> Array.length row_labels then
    invalid_arg "Dataset.of_activities: rows/labels mismatch";
  build ~name ~events ~row_labels ~reps (fun () event ->
      Hwsim.Machine.measure_repetitions ~seed ~reps event rows)

(* The thread activities are a function of (kernel config, rep,
   thread) only — independent of which events a build measures — so
   ranges of the same campaign can share one generation.

   The chases are independent, so [executor] runs them as
   [Executor.jobs executor] tasks.  Task [k] owns one simulator and
   walks chases [k], [k + jobs], ... of the flat (rep, row, thread)
   index space; a simulator is reset before each chase, so every
   activity is the one a fresh simulator gives, whatever the task
   split. *)
let generate_dcache_activities ~executor ~reps =
  let configs = Array.of_list Cache_kernels.configs in
  let nrows = Array.length configs and threads = Cache_kernels.threads in
  let total = reps * nrows * threads in
  let jobs = Executor.jobs executor in
  let chase i =
    let thread = i mod threads and row = i / threads mod nrows in
    (configs.(row), i / (threads * nrows), thread)
  in
  let strides =
    Executor.map ~executor jobs (fun k ->
        let sim = Cache_kernels.simulator () in
        Array.init
          ((total - k + jobs - 1) / jobs)
          (fun j ->
            let config, rep, thread = chase (k + (j * jobs)) in
            Cache_kernels.thread_activity ~sim config ~rep ~thread))
  in
  Array.init reps (fun rep ->
      Array.init nrows (fun row ->
          Array.init threads (fun thread ->
              let i = (((rep * nrows) + row) * threads) + thread in
              strides.(i mod jobs).(i / jobs))))

(* Cached at the last repetition count (range sweeps hit the same
   count N times in a row).  Only the calling domain fills the cache:
   the parallel shard front prewarms it before dispatch, so range
   builds on worker domains only read it. *)
let dcache_activities =
  let cache = ref None in
  fun ?(executor = Executor.Seq) ~reps () ->
    match !cache with
    | Some (r, a) when r = reps -> a
    | _ ->
      let a = generate_dcache_activities ~executor ~reps in
      cache := Some (reps, a);
      a

let prewarm_dcache ?executor ~reps () =
  ignore (dcache_activities ?executor ~reps ())

(* Each repetition's entry is the [reduce] of the 8 measuring threads'
   readings of the same kernel row. *)
let dcache_sweep ~reduce ~reps () =
  let nrows = List.length Cache_kernels.configs in
  (* activities.(rep).(row).(thread) *)
  let activities = dcache_activities ~reps () in
  let thread_seeds =
    Array.init Cache_kernels.threads (Printf.sprintf "cat-dcache/thread=%d")
  in
  let reduce = match reduce with `Median -> Numkit.Stats.median | `Mean -> Numkit.Stats.mean in
  fun event ->
    if Obs.enabled () then begin
      Obs.add "dataset.thread_reductions" (float_of_int (reps * nrows));
      let readings = reps * nrows * Cache_kernels.threads in
      Hwsim.Machine.count_readings ~readings
        ~draws:(readings * Hwsim.Noise_model.draws event.Hwsim.Event.noise)
    end;
    List.init reps (fun rep ->
        Array.init nrows (fun row ->
            reduce
              (Array.mapi
                 (fun thread activity ->
                   Hwsim.Machine.measure ~seed:thread_seeds.(thread) ~rep ~row
                     event activity)
                 activities.(rep).(row))))

let collect ?(reduce = `Median) ?lo ?hi ~reps bench =
  let simple seed rows () event =
    Hwsim.Machine.measure_repetitions ~seed ~reps event rows
  in
  build ~name:(base_name bench) ~events:(events bench)
    ~row_labels:(row_labels bench) ~reps ?lo ?hi
    (match bench with
    | Cpu_flops -> simple "cat-cpu-flops" Flops_kernels.rows
    | Branch -> simple "cat-branch" Branch_kernels.rows
    | Gpu_flops -> simple "cat-gpu-flops" Gpu_kernels.rows
    | Zen_flops -> simple "cat-zen-flops" Flops_kernels.rows
    | Dcache -> dcache_sweep ~reduce ~reps)

let range ?(reps = default_reps) ~lo ~hi bench = collect ~lo ~hi ~reps bench

(* Datasets at default repetitions are deterministic: build once.
   One cell per benchmark, so builds of two benchmarks on two domains
   never share mutable state. *)
let memo bench =
  let cell = ref None in
  fun ?(reps = default_reps) () ->
    match !cell with
    | Some d when reps = default_reps -> d
    | _ ->
      let d = collect ~reps bench in
      if reps = default_reps then cell := Some d;
      d

let cpu_flops = memo Cpu_flops
let branch = memo Branch
let gpu_flops = memo Gpu_flops
let zen_flops = memo Zen_flops
let dcache = memo Dcache

let dcache_reduced ?(reps = default_reps) reduce = collect ~reduce ~reps Dcache

let find t name =
  List.find (fun (m : measurement) -> m.event.Hwsim.Event.name = name) t.measurements

let filter_events pred t =
  { t with measurements = List.filter (fun (m : measurement) -> pred m.event) t.measurements }

let merge a b =
  if a.row_labels <> b.row_labels then invalid_arg "Dataset.merge: row labels differ";
  if a.reps <> b.reps then invalid_arg "Dataset.merge: repetition counts differ";
  List.iter
    (fun (m : measurement) ->
      if
        List.exists
          (fun (m' : measurement) ->
            m'.event.Hwsim.Event.name = m.event.Hwsim.Event.name)
          a.measurements
      then invalid_arg ("Dataset.merge: duplicate event " ^ m.event.Hwsim.Event.name))
    b.measurements;
  { a with
    name = a.name ^ "+" ^ b.name;
    measurements = a.measurements @ b.measurements }

let reps_to_csv t =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "event,rep";
  Array.iter (fun l -> Buffer.add_string buf ("," ^ l)) t.row_labels;
  Buffer.add_char buf '\n';
  List.iter
    (fun (m : measurement) ->
      List.iteri
        (fun rep v ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d" m.event.Hwsim.Event.name rep);
          Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf ",%.17g" x)) v;
          Buffer.add_char buf '\n')
        m.reps)
    t.measurements;
  Buffer.contents buf

type imported = {
  mutable vectors : float array list;  (* newest first *)
  mutable count : int;
  mutable last_line : int;
}

(* String.trim's whitespace. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* The value of the decimal digits [s.[i..hi)], or -1 if another
   character occurs; the caller bounds the length. *)
let rec plain_int s i hi acc =
  if i = hi then acc
  else
    match s.[i] with
    | '0' .. '9' as d -> plain_int s (i + 1) hi ((acc * 10) + Char.code d - Char.code '0')
    | _ -> -1

(* One scan over the input: lines, fields and trimming are index
   bounds into [csv], so a line allocates only its event name and its
   vector (plus a substring for a number that is not a plain integer).
   Checks, their order and their messages are those of splitting the
   input into trimmed lines and fields. *)
let of_reps_csv ~name csv =
  let fail line msg = failwith (Printf.sprintf "Dataset.of_reps_csv: line %d: %s" line msg) in
  let len = String.length csv in
  let line_end pos = Option.value (String.index_from_opt csv pos '\n') ~default:len in
  let rec trim_lo lo hi = if lo < hi && is_space csv.[lo] then trim_lo (lo + 1) hi else lo in
  let rec trim_hi lo hi = if hi > lo && is_space csv.[hi - 1] then trim_hi lo (hi - 1) else hi in
  let rec comma_from i hi = if i < hi && csv.[i] <> ',' then comma_from (i + 1) hi else i in
  let rec commas i hi k = if i = hi then k else commas (i + 1) hi (if csv.[i] = ',' then k + 1 else k) in
  (* Blank lines are skipped but still counted in line numbers.
     Returns the header's line number, trimmed text and line end. *)
  let rec find_header pos lineno =
    let e = line_end pos in
    let lo = trim_lo pos e in
    let hi = trim_hi lo e in
    if lo < hi then (lineno, String.sub csv lo (hi - lo), e)
    else if e = len then failwith "Dataset.of_reps_csv: empty input"
    else find_header (e + 1) (lineno + 1)
  in
  let header_line, header, header_end = find_header 0 1 in
  match String.split_on_char ',' header with
  | "event" :: "rep" :: labels when labels <> [] ->
    let row_labels = Array.of_list labels in
    let n = Array.length row_labels in
    (* [v.(k)] <- the number in field [fa, fb).  A trimmed field of
       1-15 decimal digits is below 2^53, so [float_of_int] of its
       digits is exactly what [float_of_string] gives. *)
    let store lineno v k fa fb =
      let ta = trim_lo fa fb in
      let tb = trim_hi ta fb in
      let x = if tb - ta >= 1 && tb - ta <= 15 then plain_int csv ta tb 0 else -1 in
      if x >= 0 then v.(k) <- float_of_int x
      else
        match float_of_string_opt (String.sub csv ta (tb - ta)) with
        | Some f -> v.(k) <- f
        | None -> fail lineno ("bad number " ^ String.sub csv fa (fb - fa))
    in
    (* Accumulate repetition vectors per event, preserving first-
       appearance order.  Each event's reps must read 0, 1, ... in
       order: a duplicated, skipped or non-integer rep fails. *)
    let order = ref [] in
    let table : (string, imported) Hashtbl.t = Hashtbl.create 64 in
    (* One trimmed, non-blank line [lo, hi): event,rep,values... *)
    let data_line lineno lo hi =
      let c1 = comma_from lo hi in
      if c1 = hi then fail lineno "expected event,rep,values...";
      let c2 = comma_from (c1 + 1) hi in
      let count = if c2 = hi then 0 else commas (c2 + 1) hi 0 + 1 in
      if count <> n then
        fail lineno (Printf.sprintf "expected %d values, got %d" n count);
      let v = Array.make n 0.0 in
      let rec fields k fa =
        if k < n then begin
          let fb = comma_from fa hi in
          store lineno v k fa fb;
          fields (k + 1) (fb + 1)
        end
      in
      fields 0 (c2 + 1);
      let event = String.sub csv lo (c1 - lo) in
      let e =
        match Hashtbl.find_opt table event with
        | Some e -> e
        | None ->
          let e = { vectors = []; count = 0; last_line = lineno } in
          order := event :: !order;
          Hashtbl.add table event e;
          e
      in
      (* The trimmed rep must be all digits and read [e.count]. *)
      let ra = trim_lo (c1 + 1) c2 in
      let rb = trim_hi ra c2 in
      let rec rep_ok i acc =
        if i = rb then ra < rb && acc = e.count
        else
          match csv.[i] with
          | '0' .. '9' as d ->
            let acc = (acc * 10) + Char.code d - Char.code '0' in
            acc <= e.count && rep_ok (i + 1) acc
          | _ -> false
      in
      if not (rep_ok ra 0) then
        fail lineno
          (Printf.sprintf "%s: repetition %S, expected %d" event
             (String.sub csv ra (rb - ra)) e.count);
      e.vectors <- v :: e.vectors;
      e.count <- e.count + 1;
      e.last_line <- lineno
    in
    let rec data_lines pos lineno =
      let e = line_end pos in
      let lo = trim_lo pos e in
      let hi = trim_hi lo e in
      if lo < hi then data_line lineno lo hi;
      if e < len then data_lines (e + 1) (lineno + 1)
    in
    if header_end < len then data_lines (header_end + 1) (header_line + 1);
    let order = List.rev !order in
    let reps =
      match order with [] -> 0 | first :: _ -> (Hashtbl.find table first).count
    in
    let measurements =
      List.map
        (fun event_name ->
          let e = Hashtbl.find table event_name in
          if e.count <> reps then
            fail e.last_line
              (Printf.sprintf "%s has %d repetitions, %s has %d" event_name
                 e.count (List.hd order) reps);
          {
            event = Hwsim.Event.make ~name:event_name ~desc:"imported" [];
            reps = List.rev e.vectors;
          })
        order
    in
    { name; row_labels; reps; measurements }
  | _ -> fail header_line "expected header event,rep,<row labels>"

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "event";
  Array.iter (fun l -> Buffer.add_string buf ("," ^ l)) t.row_labels;
  Buffer.add_char buf '\n';
  List.iter
    (fun (m : measurement) ->
      let mean = Numkit.Stats.elementwise_mean m.reps in
      Buffer.add_string buf m.event.Hwsim.Event.name;
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%g" v)) mean;
      Buffer.add_char buf '\n')
    t.measurements;
  Buffer.contents buf
