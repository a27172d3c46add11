(** Execution strategy for the pipeline — an alias of {!Executor} (see
    its interface for the contract, the determinism argument and the
    shared-state invariant).  [Core.Exec.t] {e is} [Executor.t], so the
    default set here is the one [Stage.run_sharded] reads. *)

include module type of struct
  include Executor
end
