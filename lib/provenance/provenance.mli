(** The per-event provenance ledger: every verdict the pipeline passed
    on a raw event, with the evidence and threshold that decided it.

    A ledger is derived from a finished run, never collected while it
    runs: [Core.Stage.assemble_ledger] reads each verdict back from the
    stage outputs the result carries.  This library holds the
    document — its types, queries, validation, JSON form and decision
    chains — and no state of its own. *)

module Ledger = Ledger
