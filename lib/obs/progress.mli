(** Live progress heartbeats: a rate-bounded, single-line-per-beat
    stderr sink for watching a long run execute.

    Each heartbeat is one line —

    {v progress: 2.1s stage=shard-classify shard 3/8 events=512 eta=1.4s v}

    — carrying the main domain's innermost open span (the current
    stage), shard progress when the staged pipeline has announced it
    ({!note_shard}, {!note_front}), the events-processed counter, and
    an ETA: the median per-shard cost ([shard-collect] plus
    [shard-classify] spans) times the shards not yet finished, divided
    by the announced concurrency.  Emission is bounded: at most one
    line per [min_interval_ns] (default 200 ms), no matter how many
    events arrive.

    Like every sink, the progress path costs nothing when not
    installed; installed, it only reads the event stream and writes
    lines through [out], so pipeline outputs are bit-identical with
    and without it (pinned by test).  {!note_shard} and {!note_front}
    are the out-of-band taps: no-ops unless a progress sink is
    installed, so the staged pipeline can announce shard boundaries
    without polluting recorded gauges (and therefore manifests).

    Worker-domain spans reach the sink as they happen: each
    [shard-classify] span end counts one finished shard, whichever
    domain ran it, while only the main domain's spans move the stage
    field.  All taps and sink callbacks are serialized behind one
    internal mutex. *)

type t

val create :
  ?out:(string -> unit) ->
  ?min_interval_ns:int64 ->
  unit ->
  t
(** [out] receives each complete heartbeat line (no trailing newline);
    the default writes ["line\n"] to stderr and flushes. *)

val sink : t -> Sink.t

val register : t -> unit
(** Subscribe to {!note_shard}.  Installing the sink into the
    collector is separate ({!Obs.with_progress} does both). *)

val unregister : t -> unit

val active : unit -> bool
(** True iff at least one progress sink is installed — the guard the
    staged pipeline's shard taps check. *)

val note_shard : index:int -> total:int -> unit
(** Announce that shard [index] (0-based) of [total] is about to run
    in the sequential front (so [index] shards are done).  No-op when
    {!active} is false. *)

val note_front : total:int -> jobs:int -> unit
(** Announce the start of a sharded front: [total] shards to run with
    [jobs]-way concurrency.  Resets the done count. *)

val lines : t -> int
(** Heartbeats emitted so far (for the rate-bound tests). *)
