(** Per-event measurement noise.

    Real PMUs read some events deterministically (retired-instruction
    style counters are exact run to run) while others — cycles,
    anything time- or contention-coupled — jitter.  The paper's whole
    Section IV exists because of this split; the models here let the
    catalogs assign each event a realistic variability class so that
    Figure 2's "zero-noise cluster plus noisy tail" shape emerges. *)

type t =
  | Exact
      (** Identical value every repetition: the zero-variability
          cluster of Figure 2. *)
  | Gauss_rel of float
      (** Multiplicative jitter: [v * (1 + sigma * N(0,1))]. *)
  | Gauss_abs of float
      (** Additive jitter: [v + sigma * N(0,1)] — keeps zero-valued
          events occasionally nonzero, as idle-device counters are. *)
  | Mixed of float * float
      (** [Mixed (rel, abs)] applies both. *)

val apply : t -> Numkit.Rng.t -> float -> float
(** Apply the model to an ideal value.  The result is clamped at zero
    and rounded to the nearest integer — counters count. *)

val draws : t -> int
(** Normal draws one {!apply} makes: 0 for [Exact], 1 for [Gauss_rel]
    and [Gauss_abs], 2 for [Mixed].  {!apply} makes no [Obs] call;
    each sweep of readings adds [hwsim.noise_draws] once, from this. *)

val describe : t -> string

val is_exact : t -> bool
