(** Benchmark datasets: every catalog event measured over every
    benchmark row, for several repetitions.

    This is the hand-off point between the simulated hardware and the
    paper's analysis: a dataset is exactly what running a CAT
    benchmark under PAPI produces — one measurement vector per event
    per repetition, nothing else.

    This module alone knows what each {!bench} measures (catalog,
    kernel rows, seeds).  Every dataset below comes from one builder:
    slice the catalog, open one [dataset-build] span, sweep each
    event's repetitions. *)

type measurement = {
  event : Hwsim.Event.t;
  reps : float array list;  (** One vector per repetition. *)
}

type t = {
  name : string;  (** e.g. ["branch"], or ["branch[0,98)"] for a range. *)
  row_labels : string array;
  reps : int;
  measurements : measurement list;
}

val default_reps : int
(** 5 repetitions, as a CAT campaign would use. *)

type bench =
  | Cpu_flops  (** Sapphire Rapids catalog, 48 CPU-FLOPs rows. *)
  | Branch  (** Sapphire Rapids catalog, 11 branching rows. *)
  | Gpu_flops  (** MI250X catalog, 45 GPU-FLOPs rows. *)
  | Zen_flops  (** The CPU-FLOPs rows on the Zen-class catalog. *)
  | Dcache
      (** Sapphire Rapids catalog, 16 data-cache rows; each entry is the
          {e median} of the 8 measuring threads (Section IV). *)

val events : bench -> Hwsim.Event.t list
(** The benchmark's event catalog, in catalog order. *)

val row_labels : bench -> string array
(** The benchmark's kernel-row labels, one per vector entry. *)

val range : ?reps:int -> lo:int -> hi:int -> bench -> t
(** Measure only the catalog events at positions [lo, hi) (0-based,
    half-open).  The vectors are bit-identical to the same slice of the
    whole-catalog dataset (same seeds, same rows, same shared dcache
    activities).  Never memoized.  Raises [Invalid_argument] on an
    out-of-bounds range. *)

(** {2 Whole catalogs}, memoized at {!default_reps} with one cell per
    benchmark; any other repetition count builds afresh. *)

val cpu_flops : ?reps:int -> unit -> t
val branch : ?reps:int -> unit -> t
val gpu_flops : ?reps:int -> unit -> t
val zen_flops : ?reps:int -> unit -> t
val dcache : ?reps:int -> unit -> t

val dcache_reduced : ?reps:int -> [ `Median | `Mean ] -> t
(** The data-cache benchmark with an explicit thread-reduction
    choice; [`Mean] is the ablation showing why the paper uses the
    median.  Not memoized. *)

val prewarm_dcache : ?executor:Executor.t -> reps:int -> unit -> unit
(** Fill the shared dcache activity cache from the calling domain,
    running its chases on [executor] (default [Seq]); the activities
    do not depend on it.  The parallel shard front calls this before
    dispatch, so worker domains only ever read the cache. *)

val of_activities :
  name:string -> seed:string -> reps:int -> events:Hwsim.Event.t list ->
  rows:Hwsim.Activity.t array -> row_labels:string array -> t
(** The same builder over caller-supplied kernel rows (extension
    benchmarks, predictor ablations), with noise streams derived from
    [seed].  Raises [Invalid_argument] if [rows] and [row_labels]
    differ in length. *)

val find : t -> string -> measurement
(** Lookup a measurement by event name; raises [Not_found]. *)

val filter_events : (Hwsim.Event.t -> bool) -> t -> t
(** Keep only matching events (rows and repetitions unchanged). *)

val merge : t -> t -> t
(** Combine two datasets over the same benchmark rows (labels and
    repetition counts must agree; event names must be disjoint).
    Use case: datasets measured in separate counter-group sessions. *)

val to_csv : t -> string
(** Mean measurement vector per event, one CSV line per event. *)

val reps_to_csv : t -> string
(** Full export: header [event,rep,<row labels>] then one line per
    (event, repetition) pair.  Lossless counterpart of {!to_csv}. *)

val of_reps_csv : name:string -> string -> t
(** Parse the {!reps_to_csv} format.  Events are reconstructed as
    opaque named events (no semantics, [Exact] noise tag — the noise
    lives in the data itself), which is exactly what an import of
    {e real} CAT measurements looks like: the analysis only ever uses
    names and numbers.  Each event's reps must read 0, 1, ..., k-1, with
    the same k for every event.  Raises [Failure] with a line number
    on malformed input; blank lines are skipped but counted.

    One scan over [csv]: lines may end in LF or CRLF, and every line
    and every data field is trimmed of [String.trim]'s whitespace
    (header labels are kept as written).  A field of
    1-15 decimal digits is read as an integer (exact, so the same
    float as [float_of_string]); any other field goes through
    [float_of_string_opt], so signs, [_], hex, exponents, [nan] and
    [inf] read as OCaml reads them. *)
