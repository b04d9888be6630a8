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

type algo = {
  integ : integ_alg;
  encr : encr_alg;
}

val icv_length : integ_alg -> int

type keys = {
  auth_key : string;  (** 32 bytes *)
  enc_key : string;  (** 32 bytes *)
  salt : string;  (** 4 bytes, mixed into the per-packet nonce *)
}

(** Keyed-crypto state derived once from the SA's keys: precomputed
    HMAC pad midstates, parsed cipher key, and the scratch buffers the
    packet codec reuses. One [crypto] serves one packet operation at a
    time (the simulator is single-threaded and every encap/decap
    completes within its call). *)
type crypto = {
  hmac : Resets_crypto.Hmac.state;
  cipher : Resets_crypto.Chacha20.state;
  nonce : Bytes.t;  (** 12 bytes: salt(4) ‖ seq(8 BE); salt prefilled *)
  hdr : Bytes.t;  (** 12-byte reconstructed-header scratch (ESN ICV) *)
  mutable scratch : Bytes.t;  (** decap plaintext staging *)
}

type params = {
  spi : int32;  (** security parameter index *)
  algo : algo;
  keys : keys;
  window_width : int;  (** the paper's [w] *)
  arena : Sadb_flat.t option;
      (** the arena shared by the SAs of a shard; [None] gives each
          {!create} a private one-slot arena *)
  lifetime_packets : int option;  (** soft lifetime, if any *)
  crypto : crypto;  (** derived; not part of the SA's identity *)
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
    both peers calling this with the same inputs get identical SAs. *)

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
