(** Mutable binary min-heap keyed by float priority.

    Used by AIG balancing and the cloud-hub discrete-event simulator. Ties
    are broken by insertion order so that algorithm behaviour is
    deterministic across runs. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> priority:float -> 'a -> unit
(** Insert an element with the given priority (smaller pops first). *)

val pop : 'a t -> 'a option
(** Remove and return a minimum-priority element, or [None] when empty. *)

val pop_exn : 'a t -> 'a
(** @raise Not_found when empty. *)

val peek : 'a t -> 'a option
(** Minimum-priority element without removing it. *)

val peek_priority : 'a t -> float option
(** Priority of the element [peek] would return. *)

val clear : 'a t -> unit
