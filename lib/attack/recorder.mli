(** Packet recorder: the adversary's capture buffer.

    The paper's adversary "can insert in the message stream from p to q
    a copy of any message t that was sent earlier by p"; this module is
    the "was sent earlier" part — attach {!tap} to a link's
    {!Resets_sim.Link.on_transit} and every legitimate packet is
    retained (up to a capacity, oldest evicted first). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Default capacity [1 lsl 20] packets. The capacity is a bound, not
    an allocation: the buffer costs at most two words per retained
    packet (see {!Resets_util.Ring.create}), so an idle tap is nearly
    free. *)

val tap : 'a t -> 'a -> unit

val count : 'a t -> int
(** Total ever captured (including evicted). *)

val retained : 'a t -> int

val captured : 'a t -> 'a list
(** Oldest first. Materializes a list — prefer {!iter}/{!fold} on the
    hot path; a full-capacity tap holds 2^20 packets. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest first, no list materialized. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Oldest first, no list materialized. *)

val nth : 'a t -> int -> 'a option
(** [nth t i] is the [i]-th retained capture, oldest = 0. O(1). *)

val latest : 'a t -> 'a option

val find_last : 'a t -> ('a -> bool) -> 'a option

val clear : 'a t -> unit
