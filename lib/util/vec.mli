(** Growable arrays (OCaml 5.1 has no [Dynarray]; this is the subset the
    rest of the code base needs). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ()] is an empty vector. [capacity] is a sizing hint: the
    first growth allocates at least that many slots in one step instead
    of walking the doubling sequence — worthwhile for queues whose
    steady-state size is known up front (the simulation engine's event
    heap). @raise Invalid_argument on a negative capacity. *)

val make : int -> 'a -> 'a t
(** [make n x] is a vector of [n] copies of [x]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element. @raise Invalid_argument when out of
    bounds. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit
(** Append one element, growing the backing store as needed. *)

val pop : 'a t -> 'a option
(** Remove and return the last element. *)

val last : 'a t -> 'a option

val clear : 'a t -> unit
(** Drop all elements (keeps the backing store). *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val map : ('a -> 'b) -> 'a t -> 'b t

val filter : ('a -> bool) -> 'a t -> 'a t

val sort : ('a -> 'a -> int) -> 'a t -> unit
(** In-place sort. *)
