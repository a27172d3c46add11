(** The run context: everything about one pipeline run that is not
    the analysis itself, passed down as one explicit value instead of
    being installed as process-global hooks.

    {!Pipeline.run}, {!Pipeline.run_custom}, {!Stage.run_sharded} and
    {!Stage.run_merged} take it as [?run].  Two runs with different
    contexts can share a process — or run at the same time on two
    domains — without seeing each other's gate, manifest sink or
    ledger. *)

type t = {
  preflight : (Category.t -> Diagnostic.t list) option;
      (** Static pre-flight lint of the category's declarative inputs.
          [lib/check] sits above core in the dependency order, so the
          caller supplies it ([Check.gate_lint]).  When set, the
          category-driven runs lint before collecting anything and
          raise {!Stage.Preflight_failed} on any error-severity
          diagnostic; the severity counts go into the manifest. *)
  manifest : (Obs.Manifest.t -> unit) option;
      (** Run-manifest sink.  When set, each run scopes an
          {!Obs.Recorder} around itself and hands the sink one
          schema-versioned {!Obs.Manifest.t}. *)
  record_ledger : bool;
      (** Assemble the provenance ledger during the run (into the
          result's [ledger] field, the [ledger.*] counters and the
          manifest's [ledger] artifact) rather than on demand in
          {!Pipeline.ledger}.  The ledger itself is the same either
          way. *)
}

val default : t
(** No gate, no manifest, no recorded ledger: the plain analysis. *)
