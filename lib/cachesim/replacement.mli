(** Replacement policies for set-associative caches.

    The policy sees way-level events (hit on a way, fill into a way)
    and answers eviction queries.  Policies are per-set and purely
    index-based so one value can serve a whole cache via the [set]
    argument.  A [kind] is a plain constant: two caches built from one
    config share no state. *)

type t

type kind =
  | Lru  (** Least-recently-used: victim is the stalest way. *)
  | Fifo  (** Round-robin fill order, ignores hits. *)

val create : kind -> sets:int -> ways:int -> t

val reset : t -> unit
(** Back to the state {!create} returns: every stamp and per-set clock
    zeroed. *)

val on_hit : t -> set:int -> way:int -> unit
(** Notify the policy that [way] of [set] was touched. *)

val on_fill : t -> set:int -> way:int -> unit
(** Notify the policy that [way] of [set] was (re)filled. *)

val victim : t -> set:int -> int
(** Choose the way to evict from [set]: the lowest-index way not
    filled since {!create} or {!reset} if there is one (its stamp is
    still 0), else the policy's choice. *)
