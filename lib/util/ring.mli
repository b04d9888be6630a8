(** Bounded ring buffer. When full, pushing evicts the oldest element.
    Used by the adversary's packet recorder and trace tails. *)

type 'a t

val create : int -> 'a t
(** [create capacity] retains at most [capacity] elements. Storage
    grows with use up to that bound: none until the first push, then
    16 slots, doubling as the ring fills. So an idle ring costs a few
    words whatever its capacity, and a busy one at most two words per
    retained element. @raise Invalid_argument if capacity is not
    positive. *)

val capacity : 'a t -> int
(** The retention bound given to {!create}. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val is_full : 'a t -> bool

val push : 'a t -> 'a -> 'a option
(** [push t x] appends [x]; returns the evicted oldest element when the
    ring was full. *)

val peek_oldest : 'a t -> 'a option

val peek_newest : 'a t -> 'a option

val pop_oldest : 'a t -> 'a option

val to_list : 'a t -> 'a list
(** Oldest first. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest first. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Oldest first. *)

val nth : 'a t -> int -> 'a option
(** [nth t i] is the [i]-th element, oldest first, in O(1). [None] if
    [i] is out of range. *)

val clear : 'a t -> unit
(** Drop every element and release the storage. *)
