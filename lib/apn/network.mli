(** Channels between APN processes.

    Each ordered process pair has one FIFO channel. The channel records
    the history of everything ever sent through it when created with
    [record_history:true]; the replay adversary draws from that
    history, matching the paper's adversary who can "insert … a copy of
    any message t that was sent earlier". A capacity bound keeps
    exhaustive exploration finite (sends into a full channel are
    disabled, not lost). *)

type t

type channel = private {
  src : string;
  dst : string;
  mutable queue : Message.t list;  (** head first *)
  mutable history : Message.t list;  (** newest first; empty when recording is off *)
}
(** One direction between two processes. Readable by anyone; written
    only through this module. *)

val create : ?capacity:int -> ?record_history:bool -> unit -> t
(** Default capacity 1024 (effectively unbounded for random runs; pass
    a small bound for exploration). *)

val capacity : t -> int

val send : t -> src:string -> dst:string -> Message.t -> unit
(** @raise Invalid_argument when the channel is full (callers guard
    sends with {!can_send}). *)

val can_send : t -> src:string -> dst:string -> bool

val receive : t -> src:string -> dst:string -> Message.t option

val queue_length : t -> src:string -> dst:string -> int

val drop_head : t -> src:string -> dst:string -> Message.t option
(** Channel loss: remove the head message without delivering it. *)

val history : t -> src:string -> dst:string -> Message.t list
(** Distinct messages ever sent (oldest first); empty when history
    recording is off. *)

val inject : t -> src:string -> dst:string -> Message.t -> bool
(** Adversarial insertion (not recorded in history); [false] when the
    channel is full. *)

val channel : t -> src:string -> dst:string -> channel
(** The channel from [src] to [dst], created (empty) on first use. *)

val count : t -> int
(** Channels created so far. *)

val nth : t -> int -> channel
(** The channel with the given id: ids number the channels in the
    order they were created, and never change. *)

val nth_sorted : t -> int -> channel
(** The [k]-th channel in (src, dst) order. *)

val offer : t -> channel -> Message.t -> bool
(** Append to the queue (recording the history when on), walking it
    once; [false], and no change, when the channel is full. *)

val pop : channel -> Message.t
(** Remove and return the head.
    @raise Invalid_argument on an empty channel. *)

val set : channel -> queue:Message.t list -> history:Message.t list -> unit
(** Overwrite the queue and the history, each only when physically
    different from the one given, so that restoring a state a step left
    alone writes nothing. *)
