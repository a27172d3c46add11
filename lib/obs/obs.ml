module Sink = Sink
module Clock = Clock
module Chrome_trace = Chrome_trace
module Memory = Memory
module Histogram = Histogram
module Gc_sample = Gc_sample
module Recorder = Recorder
module Manifest = Manifest
module Store = Store
module Trend = Trend
module Folded = Folded
module Progress = Progress

(* One process-wide collector, callable from any domain.  Each domain
   keeps its own open-span stack in domain-local storage; everything
   shared (sinks, span ids, counter and gauge tables, sink dispatch)
   sits behind [lock].  The enabled flag is an atomic, so the disabled
   path is one load and takes no lock. *)

type open_span = {
  id : int;
  name : string;
  start_ns : int64;
  mutable rev_attrs : (string * Sink.attr) list;
}

let lock = Mutex.create ()
let locked f = Mutex.protect lock f
let sinks : Sink.t list ref = ref []
let enabled_flag = Atomic.make false
let next_id = ref 1
let counters_tbl : (string, float ref) Hashtbl.t = Hashtbl.create 64
let gauges_tbl : (string, float ref) Hashtbl.t = Hashtbl.create 16

(* This domain's open spans, innermost first. *)
let stack_key : open_span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let enabled () = Atomic.get enabled_flag

let install sink =
  locked (fun () ->
      sinks := !sinks @ [ sink ];
      Atomic.set enabled_flag true)

let uninstall sink =
  locked (fun () ->
      sinks := List.filter (fun s -> s != sink) !sinks;
      if !sinks = [] then Atomic.set enabled_flag false)

let reset_counters () =
  locked (fun () ->
      Hashtbl.reset counters_tbl;
      Hashtbl.reset gauges_tbl)

let clear () =
  locked (fun () ->
      sinks := [];
      Atomic.set enabled_flag false;
      next_id := 1;
      Hashtbl.reset counters_tbl;
      Hashtbl.reset gauges_tbl);
  stack () := []

let begin_span name =
  if not (enabled ()) then 0
  else begin
    let st = stack () in
    let parent = match !st with [] -> 0 | s :: _ -> s.id in
    let id, ts_ns =
      locked (fun () ->
          let id = !next_id in
          Stdlib.incr next_id;
          let ts_ns = Clock.now_ns () in
          List.iter
            (fun (s : Sink.t) -> s.on_span_start ~id ~parent ~name ~ts_ns)
            !sinks;
          (id, ts_ns))
    in
    st := { id; name; start_ns = ts_ns; rev_attrs = [] } :: !st;
    id
  end

(* Caller holds [lock]. *)
let close_one (s : open_span) =
  let ts_ns = Clock.now_ns () in
  let dur_ns = Int64.sub ts_ns s.start_ns in
  List.iter
    (fun (sink : Sink.t) ->
      sink.on_span_end ~id:s.id ~name:s.name ~ts_ns ~dur_ns
        ~attrs:(List.rev s.rev_attrs))
    !sinks

let end_span id =
  let st = stack () in
  if id <> 0 && List.exists (fun s -> s.id = id) !st then
    (* Close any spans opened after [id] first, so an exception that
       skipped their end_span cannot corrupt the nesting. *)
    locked (fun () ->
        let rec pop () =
          match !st with
          | [] -> ()
          | s :: rest ->
            st := rest;
            close_one s;
            if s.id <> id then pop ()
        in
        pop ())

let span name f =
  if not (enabled ()) then f ()
  else begin
    let id = begin_span name in
    Fun.protect ~finally:(fun () -> end_span id) f
  end

let set_attr name v =
  match !(stack ()) with
  | [] -> ()
  | s :: _ -> s.rev_attrs <- (name, v) :: s.rev_attrs

let attr_str name v = if enabled () then set_attr name (Sink.Str v)
let attr_int name v = if enabled () then set_attr name (Sink.Int v)
let attr_float name v = if enabled () then set_attr name (Sink.Float v)
let attr_bool name v = if enabled () then set_attr name (Sink.Bool v)

let add name delta =
  if enabled () then
    locked (fun () ->
        let cell =
          match Hashtbl.find_opt counters_tbl name with
          | Some c -> c
          | None ->
            let c = ref 0.0 in
            Hashtbl.add counters_tbl name c;
            c
        in
        cell := !cell +. delta;
        let total = !cell in
        let ts_ns = Clock.now_ns () in
        List.iter
          (fun (s : Sink.t) -> s.on_counter ~name ~delta ~total ~ts_ns)
          !sinks)

let incr name = add name 1.0

let gauge name value =
  if enabled () then
    locked (fun () ->
        (match Hashtbl.find_opt gauges_tbl name with
        | Some c -> c := value
        | None -> Hashtbl.add gauges_tbl name (ref value));
        let ts_ns = Clock.now_ns () in
        List.iter (fun (s : Sink.t) -> s.on_gauge ~name ~value ~ts_ns) !sinks)

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters_tbl name with Some c -> !c | None -> 0.0)

let counters () =
  locked (fun () ->
      Hashtbl.fold (fun name c acc -> (name, !c) :: acc) counters_tbl [])
  |> List.sort compare

(* The collector owns sink installation, so the pairing of "install
   the progress sink" with "subscribe it to the shard tap" lives
   here; teardown runs even when [f] raises, so no heartbeat outlives
   its run. *)
let with_progress p f =
  let s = Progress.sink p in
  Progress.register p;
  install s;
  Fun.protect
    ~finally:(fun () ->
      uninstall s;
      Progress.unregister p)
    f
