(** The aggregating sink: structured per-span-name timing aggregates
    (count/total/min/max, fixed-bucket duration {!Histogram},
    accumulated {!Gc_sample} deltas), counter deltas and gauges — what
    {!Manifest.of_recorder} snapshots and {!render} prints. *)

type span_agg = {
  mutable count : int;
  mutable total_ns : float;
  mutable min_ns : float;
  mutable max_ns : float;
  hist : Histogram.t;
  mutable gc : Gc_sample.t;
}

type t

val create : unit -> t

val sink : t -> Sink.t

val spans : t -> (string * span_agg) list
(** Sorted by span name. *)

val counters : t -> (string * float) list
(** Counter deltas seen by this sink, sorted by name. *)

val gauges : t -> (string * float) list
(** Last-write-wins gauge levels, sorted by name. *)

val reset : t -> unit
(** Drop every aggregate, counter and gauge seen so far (between
    analysis runs). *)

val render : t -> string
(** Plain-text table in two sections: span timings (count, total,
    mean, min, max in ms; total time descending), then the
    [counters:] and [gauges:] lists sorted by name.  Empty string if
    nothing was recorded. *)
