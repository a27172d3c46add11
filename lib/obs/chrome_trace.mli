(** Chrome-trace-format sink.

    Accumulates trace events in the Trace Event Format's JSON array
    form, one event object per line (B/E duration events for spans,
    C events for counters and gauges), loadable directly in
    [chrome://tracing] or [ui.perfetto.dev].  Timestamps are
    microseconds relative to sink creation, so traces start at 0.
    Each event's [tid] is the emitting domain's id plus one (the main
    domain is tid 1), so spans nest per domain. *)

type t

val create : unit -> t

val sink : t -> Sink.t

val contents : t -> string
(** The complete JSON document accumulated so far (the array is closed
    on every call; the sink can keep accumulating afterwards). *)

val write_file : t -> string -> unit
(** [write_file t path] writes {!contents} to [path]. *)
