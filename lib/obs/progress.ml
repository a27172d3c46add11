(* The live progress sink: single-line stderr heartbeats at a bounded
   rate, fed entirely from the event stream (span boundaries, counter
   totals) plus out-of-band shard taps.

   The taps exist because shard progress is a *hint*, not telemetry:
   publishing it as a gauge would make it part of every recorded
   manifest and break the byte-identity of manifests captured with
   and without --progress.  note_shard/note_front go straight to the
   installed progress sinks and nowhere else, and are a single list
   check when none is installed.

   Worker-domain spans reach the sink live, so shard completions are
   counted from [shard-classify] span ends, and only the main
   domain's spans move the stage field (workers' spans interleave).

   Thread safety: the collector calls the sink callbacks under its own
   lock on whichever domain emitted the event, while the taps run
   outside it, so every state mutation and every emission happens
   under one module-level mutex.  The lock is never held across
   anything that can re-enter this module or the collector. *)

type t = {
  out : string -> unit;
  min_interval_ns : int64;
  start_ns : int64;
  mutable last_emit_ns : int64;  (* start - interval => first beat is eligible immediately *)
  mutable stack : string list;  (* main domain's open spans, innermost first *)
  mutable shard : int;  (* 0-based index of the shard underway; -1 none *)
  mutable shards : int;  (* total; 0 when not sharded *)
  mutable jobs : int;  (* announced concurrency; 1 = serial *)
  mutable done_shards : int;  (* shards completed ([shard-classify] ends) *)
  mutable events : float;  (* dataset.events_measured total *)
  span_hists : (string, Histogram.t) Hashtbl.t;  (* completed spans *)
  mutable emitted : int;
}

let lock = Mutex.create ()
let locked f = Mutex.protect lock f

let default_out line =
  Printf.eprintf "%s\n%!" line

let create ?(out = default_out) ?(min_interval_ns = 200_000_000L) () =
  let now = Clock.now_ns () in
  {
    out;
    min_interval_ns;
    start_ns = now;
    last_emit_ns = Int64.sub now min_interval_ns;
    stack = [];
    shard = -1;
    shards = 0;
    jobs = 1;
    done_shards = 0;
    events = 0.0;
    span_hists = Hashtbl.create 16;
    emitted = 0;
  }

let actives : t list ref = ref []

let active () = !actives <> []

let note_hist t name dur_ns =
  let h =
    match Hashtbl.find_opt t.span_hists name with
    | Some h -> h
    | None ->
      let h = Histogram.create () in
      Hashtbl.add t.span_hists name h;
      h
  in
  Histogram.observe h (Int64.to_float dur_ns)

(* ETA: the median per-shard cost (the [shard-collect] plus the
   [shard-classify] span medians) times the shards not yet finished,
   divided by the announced concurrency — under [--jobs N] the
   remaining shards complete roughly N at a time.  Conservative and
   cheap; absent until both spans have completed at least once. *)
let eta_ns t =
  let median name =
    match Hashtbl.find_opt t.span_hists name with
    | Some h when Histogram.count h > 0 -> Histogram.quantile h 0.5
    | _ -> Float.nan
  in
  let per_shard = median "shard-collect" +. median "shard-classify" in
  if t.shards <= 0 || Float.is_nan per_shard then None
  else
    let remaining = max (t.shards - t.done_shards) 0 in
    Some
      (float_of_int remaining *. per_shard
      /. float_of_int (max 1 (min t.jobs remaining)))

let seconds ns = ns /. 1e9

let line t ~now_ns =
  let buf = Buffer.create 96 in
  Printf.bprintf buf "progress: %.1fs"
    (seconds (Int64.to_float (Int64.sub now_ns t.start_ns)));
  (match t.stack with
  | stage :: _ -> Printf.bprintf buf " stage=%s" stage
  | [] -> ());
  if t.jobs > 1 && t.shards > 0 then
    Printf.bprintf buf " shards %d/%d done jobs=%d" t.done_shards t.shards
      t.jobs
  else if t.shards > 0 && t.shard >= 0 then
    Printf.bprintf buf " shard %d/%d" (min (t.shard + 1) t.shards) t.shards;
  if t.events > 0.0 then Printf.bprintf buf " events=%.0f" t.events;
  (match eta_ns t with
  | Some ns -> Printf.bprintf buf " eta=%.1fs" (seconds ns)
  | None -> ());
  Buffer.contents buf

(* Caller holds [lock]. *)
let maybe_emit t =
  let now = Clock.now_ns () in
  if Int64.compare (Int64.sub now t.last_emit_ns) t.min_interval_ns >= 0 then begin
    t.last_emit_ns <- now;
    t.emitted <- t.emitted + 1;
    t.out (line t ~now_ns:now)
  end

let sink t =
  {
    Sink.on_span_start =
      (fun ~id:_ ~parent:_ ~name ~ts_ns:_ ->
        locked (fun () ->
            if Domain.is_main_domain () then t.stack <- name :: t.stack;
            maybe_emit t));
    on_span_end =
      (fun ~id:_ ~name ~ts_ns:_ ~dur_ns ~attrs:_ ->
        locked (fun () ->
            (if Domain.is_main_domain () then
               match t.stack with [] -> () | _ :: rest -> t.stack <- rest);
            if name = "shard-classify" then t.done_shards <- t.done_shards + 1;
            note_hist t name dur_ns;
            maybe_emit t));
    on_counter =
      (fun ~name ~delta:_ ~total ~ts_ns:_ ->
        locked (fun () ->
            if name = "dataset.events_measured" then t.events <- total;
            maybe_emit t));
    on_gauge = (fun ~name:_ ~value:_ ~ts_ns:_ -> ());
  }

(* Registration only covers the out-of-band taps; installing the sink
   into the collector is the caller's move (Obs.with_progress pairs
   the two, since the collector lives above this module). *)
let register t =
  locked (fun () ->
      if not (List.memq t !actives) then actives := t :: !actives)

let unregister t =
  locked (fun () -> actives := List.filter (fun x -> x != t) !actives)

(* In the sequential front shard [index] runs after the [index]
   before it, so that many are done. *)
let note_shard ~index ~total =
  locked (fun () ->
      List.iter
        (fun t ->
          t.shard <- index;
          t.shards <- total;
          t.done_shards <- index;
          maybe_emit t)
        !actives)

let note_front ~total ~jobs =
  locked (fun () ->
      List.iter
        (fun t ->
          t.shards <- total;
          t.jobs <- max 1 jobs;
          t.done_shards <- 0;
          maybe_emit t)
        !actives)

let lines t = locked (fun () -> t.emitted)
