(** Execution strategy for the embarrassingly parallel part of the
    pipeline: shard collection and classification.

    {1 Contract}

    An executor runs a batch of independent tasks and returns when all
    of them have finished.  Two implementations exist:

    - [Seq] — the bit-exact reference.  Tasks run in index order on
      the calling domain, with no wrapping of any kind.  This is
      byte-for-byte the pre-executor behavior.
    - [Domains n] — a persistent pool of [n - 1] worker domains plus
      the calling domain.  Tasks are handed out by an atomic index
      grab, so assignment of tasks to domains is nondeterministic —
      callers must only submit tasks whose results are independent of
      execution order and placement.

    Determinism argument: every call site partitions work into tasks
    whose outputs are written to disjoint, preallocated slots (array
    cells indexed by task).  Within each task the floating-point
    operation order is identical to the sequential reference, so the
    bits written do not depend on which domain ran the task or when.
    Observability is the one side channel, and it is order-free where
    outputs depend on it: tasks call the domain-safe [Obs] collector
    directly (per-domain span stacks, one lock around the shared
    tables and sink dispatch), so events reach the sinks in completion
    order.  Counter deltas are whole numbers, so totals do not depend
    on that order; span names and counts do not either.  Sinks run
    under the collector lock and must not call [Obs]; a gauge set in a
    task is last-write-wins in completion order (no library code sets
    one).

    {1 Shared-state / RNG invariant}

    Tasks submitted to [Domains] must not share mutable state except
    through their disjoint output slots.  In particular no random
    generator may be shared across tasks: [Hwsim.Machine] derives a
    fresh [Numkit.Rng] from the pure key [(seed, event, rep, row)] for
    every reading, so shard workers never observe generator state from
    another shard — this is what makes parallel collection bit-exact.
    The one module-level cache reachable from shard tasks
    ([Cat_bench.Dataset.dcache_activities]) is filled from the calling
    domain before dispatch ([Core.Category.prewarm]).  That fill is
    itself dispatched on the executor it is given: each task owns one
    cache simulator, resets it before every chase and writes disjoint
    slots, and no cache config carries mutable state (replacement
    policies are plain constants), so tasks share nothing; only the
    calling domain stores the cache.  No other mutable state in
    [hwsim]/[cat_bench] escapes into tasks.

    Nested submission (a task that itself calls [map]) degrades to
    sequential execution on the worker — the pool is never re-entered,
    so it cannot deadlock. *)

type t =
  | Seq  (** sequential reference — current behavior, bit-exact *)
  | Domains of int
      (** [Domains n]: calling domain + [n - 1] pooled workers *)

val of_jobs : int -> t
(** [of_jobs n] is [Seq] when [n <= 1], [Domains n] otherwise. *)

val jobs : t -> int
(** Concurrency width: [1] for [Seq], [n] for [Domains n]. *)

val name : t -> string
(** ["seq"] or ["domains:N"] — for manifests and diagnostics. *)

val default : unit -> t
(** Process-wide default, [Seq] until [set_default].  The CLI [--jobs]
    flag sets it; [Stage.run_sharded] reads it. *)

val set_default : t -> unit

val with_default : t -> (unit -> 'a) -> 'a
(** Run a thunk with the default temporarily replaced (restored on
    exception). *)

val in_worker : unit -> bool
(** True on a pool worker domain (or inside a task the calling domain
    runs on behalf of the pool).  Used to force nested parallel calls
    to degrade to sequential. *)

val map : ?executor:t -> int -> (int -> 'a) -> 'a array
(** [map n f] is [Array.init n f] under [Seq]; under [Domains] the
    [f i] calls run concurrently (each result written to slot [i]).
    [?executor] defaults to [default ()].  Falls back to sequential
    when [n <= 1] or when already inside a worker.  If any task
    raises, the first exception (by completion order) is re-raised
    after the whole batch has drained. *)
