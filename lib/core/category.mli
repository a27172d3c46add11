(** The four benchmark categories and their paper-given parameters.

    Each category bundles: the dataset collector, the expectation
    basis, the metric signatures, and the thresholds the paper uses —
    the noise cutoff τ (Section IV) and the QRCP rounding tolerance α
    (Section V). *)

type t = Cpu_flops | Gpu_flops | Branch | Dcache

val all : t list

val name : t -> string
(** ["cpu-flops"], ["gpu-flops"], ["branch"], ["dcache"]. *)

val of_name : string -> t
(** Inverse of {!name}; raises [Invalid_argument]. *)

val tau : t -> float
(** Noise threshold: 1e-10 everywhere except 1e-1 for the data
    cache. *)

val alpha : t -> float
(** QRCP rounding tolerance: 5e-4, except 5e-2 for the data cache. *)

val projection_tol : t -> float
(** Relative-residual cutoff for accepting an event's representation
    in the expectation basis.  The paper states only that events with
    "too large" least-squares error are disregarded; 2% (5% for the
    noisy cache data) implements that. *)

val bench : t -> Cat_bench.Dataset.bench
(** The CAT benchmark the category analyzes: its catalog, kernel rows
    and seeds all come from {!Cat_bench.Dataset}. *)

val dataset : ?reps:int -> t -> Cat_bench.Dataset.t
(** The memoized whole-catalog dataset of {!bench}. *)

val events : t -> Hwsim.Event.t list
(** [Cat_bench.Dataset.events (bench t)]: the category's event
    catalog, in catalog order. *)

val catalog_size : t -> int
(** [List.length (events t)] — the [total] that shard ranges cover. *)

val dataset_range : ?reps:int -> lo:int -> hi:int -> t -> Cat_bench.Dataset.t
(** [Cat_bench.Dataset.range ?reps ~lo ~hi (bench t)]: bit-identical
    to the corresponding slice of {!dataset}.  Raises
    [Invalid_argument] on an out-of-bounds range. *)

val prewarm : ?executor:Executor.t -> reps:int -> t -> unit
(** Force any module-level cache the category's shard builders share
    (the dcache activity arrays), from the calling domain, before
    shards are dispatched to worker domains.  The cache's independent
    simulations run on [executor] (default [Seq]); the result does not
    depend on it. *)

val ideals : t -> Cat_bench.Ideal.ideal list

val basis : t -> Expectation.t

val signatures : t -> Signature.t list

val machine : t -> string
(** The system the paper measured this category on. *)
