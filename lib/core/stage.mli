(** The staged pipeline: explicit, typed stage boundaries for the
    paper's analysis, with shard-parallel front stages and
    serializable inter-stage artifacts.

    The stage graph:

    {v
      dataset_shard --classify--> classified_shard --\
      dataset_shard --classify--> classified_shard ---+--merge--> classified
      dataset_shard --classify--> classified_shard --/               |
                                                                projection
                                                                     |
                                                                specialized QRCP
                                                                     |
                                                                metric solve
    v}

    Collection and noise filtering are per-event computations
    (an event's verdict depends only on its own repetition vectors),
    so they shard by catalog range [\[lo, hi)].  Projection, QRCP and
    the metric solve need the whole accepted set and run once,
    downstream of the deterministic merge.

    {b Bit-identity contract}: because a simulated reading's noise
    stream is keyed by [(seed, event, rep, row)], a sharded run —
    whether the shards stay in-process or travel through the JSON
    artifact — produces byte-identical chosen events, metric
    definitions and provenance ledger to the monolithic
    {!Pipeline.run} for every shard count.  [test/test_stage.ml] pins
    this for all four categories. *)

type config = {
  tau : float;
  alpha : float;
  projection_tol : float;
  reps : int;
}

val default_config : Category.t -> config

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
(** See {!Pipeline.result} for per-field documentation (Pipeline
    re-exports this type). *)

(** {1 Optional pre-flight gate}

    Off unless the run context carries one (the [preflight] field of
    {!Run.t}).  When it does, {!Pipeline.run} and {!run_sharded} lint
    the category's declarative inputs (zero kernel executions) before
    collecting anything and raise {!Preflight_failed} carrying the
    error-severity diagnostics.  On clean inputs the gate changes no
    pipeline output. *)

exception Preflight_failed of Diagnostic.t list

type fates = { events : int; all_zero : int; too_noisy : int; kept : int }
(** Noise-filter fates of a catalog: [events] is the sum of the
    other three. *)

exception No_accepted_events of fates
(** Raised by {!downstream} (so by every driver) when the projection
    accepts no event: too few events were kept, or none of the kept
    ones is representable within [projection_tol].  Carries the fates
    so the caller can say which. *)

exception Row_count_mismatch of { category : string; rows : int; expected : int }
(** Raised by {!downstream} (so by every driver) before it projects a
    kept event whose vector has [rows] entries while the category's
    basis has [expected] rows: a ready-made dataset (an imported CSV)
    measured a different set of kernel rows.  A dataset with no kept
    event never reaches the projection and gets {!No_accepted_events}
    instead. *)

val preflight_check : Run.t -> Category.t -> Obs.Manifest.lint_summary option
(** Run the context's gate, raising {!Preflight_failed} if any
    diagnostic has error severity; otherwise return the severity
    counts the manifest records.  [None] when the context has no
    gate. *)

(** {1 Run manifests}

    Off unless the run context carries a sink (the [manifest] field of
    {!Run.t}).  When it does, every {!Pipeline.run},
    {!Pipeline.run_custom}, {!run_sharded} and {!run_merged} scopes an
    {!Obs.Recorder} around itself and hands the sink one
    schema-versioned {!Obs.Manifest.t} carrying the config digest
    (category, machine, τ/α/β, projection tolerance, reps, shard
    count), per-stage span timings with latency histograms and GC
    deltas, all counters and gauges, the ledger fate totals, the
    pre-flight lint summary and content hashes of the shard/ledger
    artifacts the run consumed or produced. *)

val with_manifest :
  run:Run.t ->
  source:string ->
  category:Category.t ->
  config:config ->
  shards:int ->
  ?jobs:int ->
  ?gate:bool ->
  ((string -> Jsonio.t -> unit) option -> result) ->
  result
(** Run [f] under scoped manifest collection and emit the manifest to
    the context's sink.  [f] receives the artifact accumulator (name
    and canonical JSON; [None] when no manifest is collected).  With
    [gate] (default false) the context's pre-flight gate runs first,
    inside the scope.  Without a sink this is the gate and [f None].
    On exception the recorder is torn down and nothing is emitted.
    [jobs] is recorded in the manifest config (defaults to the jobs of
    {!Exec.default}). *)

val fate_totals : result -> (string * float) list
(** The ledger fate totals of a finished run, recomputed from the
    stage outputs (events / all_zero / noisy / kept / accepted /
    unrepresentable / eliminated / chosen) — what the manifest's
    [totals] table records. *)

(** {1 Shard geometry} *)

type range = { lo : int; hi : int }
(** Half-open catalog range [\[lo, hi)], 0-based. *)

val range_pp : range -> string
(** ["[lo,hi)"]. *)

val shard_ranges : shards:int -> total:int -> range list
(** Partition [\[0, total)] into [shards] contiguous ranges, sizes
    differing by at most one (remainder spread over the leading
    shards).  Ranges beyond [total] are empty but still present, so
    the list always has length [shards].  Raises [Invalid_argument]
    if [shards < 1] or [total < 0]. *)

(** {1 Front stages (shardable)} *)

type dataset_shard = {
  shard_range : range;
  catalog_events : int;  (** Events in the whole catalog. *)
  dataset : Cat_bench.Dataset.t;  (** Only events in [shard_range]. *)
}

type classified_shard = {
  category : string;
  machine : string;
  shard_config : config;
  range : range;
  total : int;  (** Catalog size the range refers to. *)
  row_labels : string array;
  measure : string;  (** Variability measure name. *)
  entries : Noise_filter.classified list;  (** Catalog order within range. *)
}
(** The unit of exchange between the shardable front and the merged
    back of the pipeline — self-describing (category, thresholds,
    coverage) so the merge stage can reject mismatched or incomplete
    shard sets, and serializable (see {!shard_to_json}) so shards can
    run in separate processes. *)

val collect_shard :
  ?reps:int -> Category.t -> range -> dataset_shard
(** Measure only the catalog events in [range], reusing the same
    per-event seeds (and, for the data cache, the same kernel-run
    activities) as the whole-catalog collection — the shard's vectors
    are bit-identical to the corresponding slice.  Raises
    [Invalid_argument] on an out-of-bounds range. *)

val classify_shard :
  config:config -> category:Category.t -> dataset_shard -> classified_shard
(** Run {!Noise_filter.classify} on one shard, inside the
    ["shard-classify"] span.  Besides the filter's [noise_filter.*]
    tallies it publishes the per-shard [shard.events] / [shard.kept]
    counters, whose sums over a sharded front are the catalog size and
    the [noise_filter.kept] total. *)

(** {1 Merge stage} *)

val merge_shards :
  classified_shard list -> (classified_shard, string) Stdlib.result
(** Deterministically reassemble the full classified catalog:
    sorts shards by range, validates headers (category, machine,
    config, catalog size, benchmark rows, measure), coverage (no
    gaps, no overlaps, every shard carrying exactly its range's
    entries) and event-name uniqueness, then concatenates entries in
    catalog order.  [Error] names the first conflict. *)

(** {1 Downstream stages (run once)} *)

val classify :
  config:config -> Cat_bench.Dataset.t -> Noise_filter.classified list
(** The monolithic noise-filter stage, inside the ["noise-filter"]
    span — what {!Pipeline.run} uses. *)

val downstream :
  ?record_ledger:bool -> config:config -> category:Category.t ->
  basis:Expectation.t -> signatures:Signature.t list ->
  classified:Noise_filter.classified list -> unit -> result
(** Projection -> specialized QRCP -> metric definitions; raises
    {!Row_count_mismatch} when a kept event's vector does not fit the
    basis and {!No_accepted_events} when the projection accepts
    nothing.  With [record_ledger] (default false) the provenance
    ledger is assembled from the same QRCP factorization
    ({!assemble_ledger}), stored in the result and published as
    [ledger.*] counters. *)

val assemble_ledger :
  result -> steps:Special_qrcp.step list ->
  leftovers:Special_qrcp.leftover list -> Provenance.Ledger.t
(** The per-event provenance ledger of a finished result: every
    verdict is read back from the stage outputs the result carries,
    plus the pick rounds and leftovers of the result's
    {!Special_qrcp.factor_full} factorization.  Entries are in catalog
    order.  The one place a ledger is built. *)

val run_merged :
  ?run:Run.t -> category:Category.t -> classified_shard list -> result
(** Merge the shards (raising [Invalid_argument] on any conflict
    {!merge_shards} reports) and run {!downstream} with the category's
    basis and signatures.  [run] defaults to {!Run.default}; its gate
    is not consulted (the shards are already collected). *)

val run_sharded :
  ?run:Run.t -> ?config:config -> ?executor:Exec.t -> shards:int ->
  Category.t -> result
(** The full sharded pipeline: pre-flight, partition the catalog,
    collect and classify each shard, merge, run downstream — all inside
    one manifest scope.  Bit-identical to {!Pipeline.run} for every
    [shards >= 1], and — for every executor — to the [Exec.Seq]
    reference: shards are pure functions of their catalog range,
    worker-domain [Obs] counters sum to the same whole-number totals
    in any order, and the merge is order-insensitive by
    construction.
    [executor] defaults to {!Exec.default}, [run] to {!Run.default}. *)

(** {1 Shard artifact JSON} *)

val shard_schema_version : int

val shard_to_json : classified_shard -> Jsonio.t
(** Versioned export ([schema_version], [kind = "classified-shard"]).
    Non-finite variability/mean values are encoded with
    {!Jsonio.fnum} so they round-trip losslessly. *)

val shard_of_json : Jsonio.t -> (classified_shard, string) Stdlib.result
(** Strict decode: rejects unknown schema versions, missing or
    mistyped fields, ranges that disagree with the entry count, and
    mean vectors that disagree with the benchmark rows.  Events are
    reconstructed as opaque named events (like a CSV import of real
    measurements): downstream stages only use names, descriptions and
    the numbers. *)

val shard_equal : classified_shard -> classified_shard -> bool
(** Structural equality with exact float comparison (NaN-tolerant via
    [Float.equal]) — used by the round-trip tests. *)
