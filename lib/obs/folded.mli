(** Folded-stack sink: flamegraph export of the span tree.

    Accumulates, per unique span stack, the {e self} time spent with
    exactly that stack open (child span time is attributed to the
    child's longer stack), and renders the standard folded format —

    {v pipeline;noise-filter 1203944 v}

    one line per stack, frames joined with [';'], the count an
    integer nanosecond total — directly consumable by [flamegraph.pl]
    and speedscope.  Because counts are self time, a frame's rendered
    width (the sum over all lines it prefixes) equals its inclusive
    time, with no double counting.

    Frame names are sanitized (spaces and semicolons become ['_']) so
    the line grammar [frame(;frame)* SP digits] always holds; lines
    are sorted, so output is deterministic for deterministic span
    sequences.  Open frames are keyed by span id and parent id, so
    spans emitted concurrently on several domains each extend their
    own parent's stack. *)

type t

val create : unit -> t
val sink : t -> Sink.t

val stacks : t -> (string * int64) list
(** The accumulated (stack, self ns) pairs, sorted by stack. *)

val contents : t -> string
(** The folded document (possibly empty). *)

val write_file : t -> string -> unit
