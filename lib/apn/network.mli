(** Channels between APN processes.

    Each ordered process pair has one FIFO channel. The channel records
    the history of everything ever sent through it when created with
    [record_history:true]; the replay adversary draws from that
    history, matching the paper's adversary who can "insert … a copy of
    any message t that was sent earlier". A capacity bound keeps
    exhaustive exploration finite (sends into a full channel are
    disabled, not lost). *)

type t

val create : ?capacity:int -> ?record_history:bool -> unit -> t
(** Default capacity 1024 (effectively unbounded for random runs; pass
    a small bound for exploration). *)

val capacity : t -> int

val send : t -> src:string -> dst:string -> Message.t -> unit
(** @raise Invalid_argument when the channel is full (callers guard
    sends with {!can_send}). *)

val can_send : t -> src:string -> dst:string -> bool

val peek : t -> src:string -> dst:string -> Message.t option

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

val pairs : t -> (string * string) list
(** Ordered pairs that have ever been used, sorted. *)

val iter_channels :
  t -> (int -> queue:Message.t list -> history:Message.t list -> unit) -> unit
(** Every channel ever used, in first-use order, with its id (that
    position, fixed for the network's life), its queue (head first)
    and its history (newest first). For {!System}'s snapshots. *)

val clear : t -> unit
(** Empty every queue and history. *)

val set_channel : t -> int -> queue:Message.t list -> history:Message.t list -> unit
(** Overwrite the queue and history of the channel with the given id.
    @raise Invalid_argument when no channel has that id. *)
