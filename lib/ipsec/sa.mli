(** Security associations.

    An SA, per the paper's introduction, bundles authentication and
    encryption keys, the algorithms, lifetimes, the sender's sequence
    number and the receiver's anti-replay window. The immutable part
    ({!type:params}) is what survives a reset without help — "the other
    attributes … remain the same during the lifetime of this SA" — and
    the per-packet mutable part (sequence number, window) is what the
    SAVE/FETCH protocol exists to recover. That mutable part lives in
    one slot of a {!Sadb_flat} arena. *)

type integ_alg =
  | Hmac_sha256_128  (** HMAC-SHA-256 truncated to 16 bytes *)
  | Hmac_sha256_full  (** full 32-byte tag *)

type encr_alg =
  | Chacha20
  | Null_encr  (** integrity only (AH-style payloads inside ESP) *)

(** How the ESP header carries the sequence number: IKEv2 negotiates
    it with the SA, as the ESN transform (RFC 7296, transform type 5),
    so both peers' codecs read it from here. *)
type framing =
  | Seq64  (** the full 64-bit number on the wire *)
  | Esn32
      (** RFC 4304 ESN: the low 32 bits on the wire; the receiver
          infers the rest from its window ({!Esn.infer}), and the ICV
          covers the full number *)

type algo = {
  integ : integ_alg;
  encr : encr_alg;
  framing : framing;
}

val default_algo : algo
(** HMAC-SHA-256-128, ChaCha20, [Seq64]. *)

val icv_length : integ_alg -> int

type keys = {
  auth_key : string;  (** 32 bytes *)
  enc_key : string;  (** 32 bytes *)
  salt : string;  (** 4 bytes, mixed into the per-packet nonce *)
}

(** The SA's immutable part (the scratch aside). The first five fields
    are all that the per-frame codec ({!Esp}) reads of it, so they
    lead the record; the first three are derived once from [spi],
    [algo] and [keys]. *)
type params = {
  wire_spi : int;  (** [spi] as an unsigned 32-bit immediate *)
  shape : Resets_crypto.Esp_kernel.shape;
      (** [algo] as the kernel reads it: header length, ICV length,
          cipher on or off *)
  key : Resets_crypto.Esp_kernel.key;
      (** the packed key block: HMAC pad midstates, ChaCha20 key, salt *)
  mutable scratch : Bytes.t;
      (** decap plaintext staging, grown ({!scratch_bytes}) only for a
          frame whose ICV verified *)
  window_width : int;  (** the paper's [w] *)
  spi : int32;  (** security parameter index *)
  algo : algo;
  keys : keys;
  arena : Sadb_flat.t option;
      (** the arena shared by the SAs of a shard; [None] gives each
          {!create} a private one-slot arena *)
  lifetime_packets : int option;  (** soft lifetime, if any *)
}

val scratch_bytes : params -> int -> Bytes.t
(** [scratch_bytes p len] is the SA's scratch buffer, grown to at
    least [len] bytes. Contents are valid until the next codec
    operation on the same SA. *)

val derive_params :
  ?algo:algo ->
  ?window_width:int ->
  ?arena:Sadb_flat.t ->
  ?lifetime_packets:int ->
  spi:int32 ->
  secret:string ->
  unit ->
  params
(** Derive the key material for [spi] from a shared [secret] via HKDF;
    both peers calling this with the same inputs get identical SAs.
    [algo] defaults to {!default_algo}. *)

(** Mutable per-endpoint state layered over shared [params]. A
    unidirectional SA has a sending side (sequence counter) and a
    receiving side (window); each endpoint instantiates the side it
    plays. Both live in one {!Sadb_flat} slot — the shared
    [params.arena] or a private one — so an SA's volatile state is one
    cache line. *)
type t = {
  params : params;
  window : Replay_window.t;  (** receiver's anti-replay window *)
  hot : Sadb_flat.t;  (** the arena holding the counters and window *)
  slot : int;  (** their slot — use the accessors below *)
}

val create : params -> t

val send_seq : t -> Resets_util.Seqno.t
(** The next sequence number to be sent (initially 1). *)

val set_send_seq : t -> Resets_util.Seqno.t -> unit
(** Overwrite the sender counter — recovery paths only (FETCH + leap,
    re-establishment); normal sending goes through {!next_send_seq}. *)

val packets_sent : t -> int
val packets_received : t -> int

val note_received : t -> unit
(** Count one accepted inbound packet against the soft lifetime. *)

val next_send_seq : t -> Resets_util.Seqno.t
(** Take the next outbound sequence number (post-increments, as in the
    paper's first action of process p) and count it against the soft
    lifetime. *)

val lifetime_exceeded : t -> bool

val volatile_reset : t -> unit
(** A host reset as seen by this SA: sequence counter back to 1, window
    forgotten. Keys and algorithms (the [params]) survive — that is the
    paper's central observation. *)

val pp : Format.formatter -> t -> unit
