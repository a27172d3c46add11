(** Structured tracing and metrics for the analysis pipeline.

    A process-wide collector of {e spans} (nested, monotonic-clock
    timed regions), {e counters} (accumulating totals) and {e gauges}
    (last-write-wins levels), fanned out to pluggable {!Sink}s:

    - no sink installed (the default): every entry point is a single
      flag check and returns immediately — instrumented code behaves
      bit-identically to uninstrumented code;
    - {!Sink.null}: the full recording path runs but nothing is kept
      (the inertness reference for tests);
    - {!Recorder}: per-span timing aggregates, GC deltas, counter
      totals and gauges, for manifests and as a plain-text table;
    - {!Chrome_trace}: a [chrome://tracing]-loadable JSON trace.

    Instrumentation discipline for hot paths: guard anything that
    would allocate (attribute values, formatted names, closures worth
    avoiding) behind {!enabled}; bare {!incr}/{!begin_span} calls with
    constant names are safe to leave unguarded.

    The collector is safe to call from any domain.  Each domain keeps
    its own stack of open spans (domain-local storage), so spans nest
    per domain: a span opened on a worker domain with nothing open
    there is a root ([parent = 0]).  Span ids, the counter and gauge
    tables and sink dispatch sit behind one mutex, so an event emitted
    on a worker reaches the sinks as soon as it happens, in completion
    order rather than task order.  Two rules follow:

    - sinks run under the collector lock and must not call [Obs]
      (the lock is not re-entrant);
    - a gauge set on a worker is last-write-wins in completion order
      (no library code sets one from a task).

    Counter deltas are whole numbers, so counter totals do not depend
    on the order in which domains add them.  Hot loops count once per
    sweep, not once per item, so a worker takes the lock rarely. *)

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

val enabled : unit -> bool
(** True iff at least one sink is installed.  The disabled fast path
    of every other entry point. *)

val install : Sink.t -> unit
(** Add a sink (multiple sinks all receive every event). *)

val uninstall : Sink.t -> unit
(** Remove one previously installed sink (matched by physical
    equality); counters, gauges and other sinks are untouched.  When
    the last sink goes, the collector returns to the zero-overhead
    disabled state.  Used for scoped collection (e.g. manifest
    recording around one run). *)

val clear : unit -> unit
(** Remove all sinks, drop the calling domain's open spans, and reset
    all counters and gauges — back to the zero-overhead state. *)

(** {1 Spans} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span.  The span is closed even if
    [f] raises.  When disabled this is exactly [f ()]. *)

val begin_span : string -> int
(** Allocation-free span opening for paths where a closure is
    unwelcome.  Returns a handle for {!end_span}; returns 0 (and does
    nothing) when disabled. *)

val end_span : int -> unit
(** Close the span with this handle.  A 0 handle is a no-op.  Spans
    opened after it and still open are closed too (exception-path
    robustness); an unknown handle is ignored. *)

(** {1 Span attributes}

    Attach to the innermost open span; delivered with its end event.
    All are no-ops when disabled or when no span is open. *)

val attr_str : string -> string -> unit
val attr_int : string -> int -> unit
val attr_float : string -> float -> unit
val attr_bool : string -> bool -> unit

(** {1 Counters and gauges} *)

val incr : string -> unit
(** Add 1 to a counter. *)

val add : string -> float -> unit
(** Add an arbitrary delta to a counter. *)

val gauge : string -> float -> unit
(** Set a gauge level. *)

val counter : string -> float
(** Current accumulated value (0 if never incremented). *)

val counters : unit -> (string * float) list
(** Snapshot of all counters, sorted by name. *)

val reset_counters : unit -> unit
(** Zero all counters and gauges (sinks are untouched) — used to
    measure per-phase deltas. *)

(** {1 Per-domain state}

    Only the open-span stack is per domain: {!begin_span},
    {!end_span}, {!span} and the attribute setters act on the calling
    domain's stack, and {!clear} drops only the calling domain's open
    spans.  Everything else is shared under the collector lock. *)

(** {1 Live progress} *)

val with_progress : Progress.t -> (unit -> 'a) -> 'a
(** Run [f] with a progress sink installed and subscribed to the
    shard tap ({!Progress.note_shard}); both are torn down when [f]
    returns or raises. *)
