(** Counter multiplexing.

    The paper's introduction motivates the whole problem with the
    fact that PMUs expose orders of magnitude more events than
    physical counters, so tools time-slice: events are grouped, each
    group counts during its slices, and the reading is extrapolated
    by the inverse of the active fraction.  Extrapolation adds noise
    when activity is not uniform over time.

    This module models that: events are assigned round-robin to
    groups of [counters]; a measurement observes an event during
    [slices / groups] of the [slices] time slices, each slice
    carrying lognormal activity jitter, and scales the partial count
    back up.  With enough counters for every event the reading is
    exact — multiplexing noise is purely a scheduling artifact, which
    the noise filter of Section IV must then absorb (at the price of
    losing otherwise-exact events). *)

type config = {
  counters : int;  (** Physical counters available (>= 1). *)
  slices : int;  (** Time slices per benchmark run (>= 1). *)
  jitter : float;
      (** Relative per-slice activity variation (>= 0). *)
}

val default_config : config
(** 8 counters, 100 slices, 10% slice jitter. *)

val groups : config -> n_events:int -> int
(** Number of round-robin groups needed (1 when everything fits). *)

val group_of_event : config -> n_events:int -> event_index:int -> int

val measure :
  config -> seed:string -> rep:int -> row:int -> event_index:int ->
  n_events:int -> Hwsim.Event.t -> Hwsim.Activity.t -> float
(** One multiplexed reading: the event's ideal value, observed during
    its group's slices with jitter, extrapolated, then passed through
    the event's own noise model.  Makes no [Obs] call: {!dataset}
    counts its readings once per event sweep. *)

val dataset :
  config -> name:string -> seed:string -> reps:int ->
  events:Hwsim.Event.t list -> rows:Hwsim.Activity.t array ->
  row_labels:string array -> Dataset.t
(** Collect a whole dataset under multiplexing. *)

val branch_dataset : ?reps:int -> config -> Dataset.t
(** The branching benchmark re-measured under multiplexing — the
    input for multiplexing ablations. *)
