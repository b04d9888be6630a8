(** Binary min-heap with user-supplied ordering.

    Used by the discrete-event engine's event queue; kept generic so
    tests can exercise it directly. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (smallest
    first). *)

val create_sized : capacity:int -> cmp:('a -> 'a -> int) -> 'a t
(** Like {!create}, but [capacity] pre-sizes the backing store (see
    {!Vec.create}) so hot event queues of known steady-state size skip
    the re-growth walk. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val clear : 'a t -> unit

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t

val to_sorted_list : 'a t -> 'a list
(** Non-destructive: elements in ascending order. *)

