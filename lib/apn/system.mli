(** A closed APN system: processes, channels, and (optionally) the
    paper's adversary and lossy channels, executable step by step.

    Step semantics: one enabled action executes at a time (the paper's
    interleaving rule). The random scheduler picks uniformly among
    enabled steps, which is weakly fair with probability 1; the
    explorer enumerates all of them. A send into a full channel loses
    the message (channels may lose messages in the paper's model, and
    this keeps exploration bounded). *)

type t

type step =
  | Proc_action of { proc : string; index : int; label : string }
  | Replay of { src : string; dst : string; msg : Message.t }
      (** adversary re-inserts a previously sent message *)
  | Drop of { src : string; dst : string }
      (** channel loses its head message *)

val step_label : step -> string

val create :
  ?capacity:int ->
  ?adversary:bool ->
  ?lossy:bool ->
  Process.t list ->
  t
(** [adversary] enables {!Replay} steps (and turns on channel history
    recording); [lossy] enables {!Drop} steps. *)

val state_of : t -> string -> State.t
(** @raise Not_found for an unknown process. *)

val network : t -> Network.t

val enabled_steps : t -> step list
(** Deterministic order (process declaration order, then action
    order, then channel order). *)

val execute : t -> step -> unit
(** @raise Invalid_argument when the step is not currently enabled. *)

val step_random : Resets_util.Prng.t -> t -> step option
(** Execute one uniformly chosen enabled step; [None] when the system
    is quiescent. *)

val run_random :
  ?stop_when:(t -> bool) -> Resets_util.Prng.t -> steps:int -> t -> int
(** Execute up to [steps] random steps; returns how many executed.
    Stops early when quiescent or when [stop_when] becomes true. *)

(** {1 Snapshots (for the explorer)}

    A snapshot is the whole global state packed into one canonical
    string: every process's variables (processes in declaration order,
    variables in name order), then every channel whose queue or
    adversary history is non-empty, with both in full. Empty channels
    are omitted, so a state reached before and after a channel's first
    use snapshots the same. Every field is tagged or length-prefixed:
    two snapshots of one system are equal exactly when the states are.
    A process's locals (see {!Ast.var_decl}) are scratch, not state, so
    no snapshot holds them.

    Channels are named by their position in the system's first-use
    order, so a snapshot is restored only into the system that took it
    (as the explorer does), and compares meaningfully only with
    snapshots of that system or of one driven through the same
    steps. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Overwrite every process variable and channel of the system with
    the snapshot's. The snapshot must come from this system. The
    system keeps a decoded copy of the last snapshot it decoded:
    restoring that same value again (physically, as the explorer does
    once per successor) rebuilds the state from the copy instead of
    decoding. A rebuild writes only what differs from the copy: a
    slot or channel that still holds the copy's (immutable) value is
    left alone, and a bool array is overwritten element by element in
    the live array (a live array of another length is replaced by a
    fresh copy). The live state never shares an array with the kept
    copy or with a snapshot: mutating a live array after a restore
    changes neither. *)

val snapshot_equal : snapshot -> snapshot -> bool
(** String equality. *)

val snapshot_hash : snapshot -> int
(** A non-negative hash of the whole string (a multiply-xorshift over
    its 8-byte words), so states that differ anywhere (deep channel
    contents included) hash apart with high probability. *)

(** {2 Probing without a copy}

    The explorer meets most states again and again. It encodes each
    successor into the system's buffer, looks the bytes up there, and
    copies out a snapshot only for a state it has not seen. *)

val encode : t -> unit
(** Encode the current state into the system's buffer: the bytes
    {!snapshot} would return, without copying them out. The buffer
    holds them until the next [encode] or [snapshot]. *)

val encoded_hash : t -> int
(** [snapshot_hash] of the encoded bytes. *)

val encoded_equal : t -> snapshot -> bool
(** [snapshot_equal] between the encoded bytes and a snapshot,
    compared in place. *)

val encoded : t -> snapshot
(** The encoded bytes, copied out as a snapshot. *)
