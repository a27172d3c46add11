(** Measurement: evaluate events on kernel activities with seeded,
    reproducible noise.

    The generator for one reading is derived from
    [(seed, event name, repetition, row)], so:
    - the same experiment re-run gives bit-identical data;
    - [Noise_model.Exact] events are identical across repetitions
      (the paper's zero-variability cluster);
    - noisy events vary across repetitions but not across re-runs of
      the whole experiment. *)

val reading_rng : seed:string -> rep:int -> row:int -> Event.t -> Numkit.Rng.t
(** The generator behind one reading: seeded from the FNV-1a hash of
    ["<seed>|<event name>|rep=<rep>|row=<row>"], computed without
    building that string. *)

val measure :
  seed:string -> rep:int -> row:int -> Event.t -> Activity.t -> float
(** One counter reading of [event] over the execution described by
    the activity record.  Makes no [Obs] call: a caller that sweeps
    readings counts them once per sweep with {!count_readings}. *)

val count_readings : readings:int -> draws:int -> unit
(** Add [readings] to the [hwsim.readings] counter and [draws] to
    [hwsim.noise_draws] ({!Noise_model.draws} per reading), one [Obs]
    call each; a zero count adds nothing.  A no-op when no sink is
    installed. *)

val measure_vector :
  seed:string -> rep:int -> Event.t -> Activity.t array -> float array
(** One measurement vector: element [i] is the reading over row
    (kernel execution) [i].  Counts its readings once per call. *)

val measure_repetitions :
  seed:string -> reps:int -> Event.t -> Activity.t array -> float array list
(** [reps] measurement vectors, one per benchmark repetition.  Counts
    the readings of all [reps] sweeps once per call. *)
