(** End-to-end analysis pipeline (the paper, start to finish).

    dataset -> noise filter (τ) -> projection onto the expectation
    basis -> specialized QRCP (α) -> least-squares metric
    definitions with backward errors.

    This module is a thin driver over the staged API in {!Stage} —
    the stages themselves (including the shard-by-event-range front
    half and the serializable shard artifacts) live there; this is
    the one-call entry point. *)

type config = Stage.config = {
  tau : float;
  alpha : float;
  projection_tol : float;
  reps : int;
}

val default_config : Category.t -> config

type result = Stage.result = {
  category : Category.t;
  config : config;
  basis : Expectation.t;
  basis_diagnostics : Expectation.diagnostics;
      (** Rank/conditioning of the basis; a degenerate basis is
          surfaced here rather than producing arbitrary
          representations silently. *)
  classified : Noise_filter.classified list;  (** Every event, with status. *)
  projected : Projection.projected list;  (** Kept events, with residuals. *)
  x : Linalg.Mat.t;  (** Accepted representations, dim x n. *)
  x_names : string array;
  chosen : int array;  (** Column indices into [x], pick order. *)
  chosen_names : string array;
  xhat : Linalg.Mat.t;  (** The chosen columns of [x]. *)
  metrics : Metric_solver.metric_def list;  (** One per signature. *)
  mutable ledger : Provenance.Ledger.t option;
      (** The per-event provenance ledger: filled by the run when its
          context set [record_ledger], and cached here by {!ledger}
          otherwise.  Either way it is {!Stage.assemble_ledger} of the
          result, so it changes nothing else in the result. *)
}

val run : ?run:Run.t -> ?config:config -> ?shards:int -> Category.t -> result
(** Run the full pipeline for one category.  [config] defaults to
    the category's paper parameters.  [shards] (default 1) splits
    data collection and noise filtering into that many catalog-range
    shards via {!Stage.run_sharded}; the outputs — chosen events,
    metric definitions, provenance ledger — are bit-identical for
    every shard count.  Raises [Invalid_argument] if [shards < 1].
    [run] (default {!Run.default}) is the run context: when it carries
    a pre-flight gate, the category's declarative inputs are linted
    first and {!Stage.Preflight_failed} is raised on any
    error-severity diagnostic; when it carries a manifest sink, the
    run emits one manifest to it. *)

val run_custom :
  ?run:Run.t -> config:config -> category:Category.t ->
  dataset:Cat_bench.Dataset.t -> basis:Expectation.t ->
  signatures:Signature.t list -> unit -> result
(** Run the pipeline on arbitrary inputs: a dataset from any source
    (another machine's catalog, CSV-imported real measurements, an
    ablation variant), any expectation basis, any signature set.
    [category] only labels the result for reporting.  The context's
    manifest sink and [record_ledger] apply; its pre-flight gate does
    not (it lints the category's own catalog, not [dataset]). *)

val run_all : unit -> result list
(** All four categories with default parameters. *)

val ledger : result -> Provenance.Ledger.t
(** The result's provenance ledger.  If the run recorded one (its
    context set [record_ledger]) it is returned as-is; otherwise it is
    assembled from the stage outputs the result already carries (one
    extra specialized-QRCP factorization, like {!Report.qrcp_trace})
    and cached on the result.  Both paths go through
    {!Stage.assemble_ledger}, and the tests pin them bit-equal. *)

val metric : result -> string -> Metric_solver.metric_def
(** Lookup a metric definition by name; raises [Not_found]. *)

val chosen_set : result -> string list
(** Chosen event names, sorted (for set comparison against the
    paper's listings). *)
