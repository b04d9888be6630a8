(** ESP-style encapsulation: confidentiality + integrity + the sequence
    number the anti-replay machinery rides on.

    Wire layout (honest framing, not bit-exact RFC 4303):
    [spi(4) | seq(8, big-endian) | ciphertext | icv]. The ICV covers
    the SPI, sequence number and ciphertext; the per-packet nonce is
    [salt(4) || seq(8)], so sequence-number reuse would also be
    nonce reuse — one more reason the SAVE/FETCH leap matters.

    We carry 64-bit sequence numbers (RFC 4304 extended style) because
    the paper treats them as unbounded integers.

    The codec is zero-copy: [encap] writes the packet into one
    exact-size buffer (header, in-place encrypt, MAC into the tail);
    [decap_slice] verifies the ICV by streaming over the packet and
    returns the plaintext as a {!Resets_util.Slice.t} into the SA's
    scratch buffer (or into the packet itself under null encryption),
    valid until the next codec operation on the same SA. The string
    [decap] remains as a copying wrapper. *)

type error =
  | Malformed  (** too short to parse *)
  | Bad_icv  (** integrity check failed — wrong key or tampering *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val encap : sa:Sa.params -> seq:Resets_util.Seqno.t -> payload:string -> string
(** Build a wire packet. @raise Invalid_argument on negative [seq]. *)

val encap_into :
  sa:Sa.params ->
  seq:Resets_util.Seqno.t ->
  payload:string ->
  Bytes.t ->
  off:int ->
  int
(** Write the wire packet directly at [off] in a caller-owned buffer
    (a tx pool slot) and return its total length — [encap] without the
    per-packet allocation. @raise Invalid_argument on negative [seq]
    or if the frame does not fit. *)

val decap : sa:Sa.params -> string -> (Resets_util.Seqno.t * string, error) result
(** Verify the ICV, decrypt, and return (sequence number, payload).
    Replay-window processing is the caller's job — in IPsec the window
    check precedes and follows ICV verification; here the caller
    sequences those steps. *)

val decap_slice :
  sa:Sa.params ->
  string ->
  (Resets_util.Seqno.t * Resets_util.Slice.t, error) result
(** Like [decap] but the payload is a view into the SA's scratch
    buffer (or the packet, under null encryption) — valid only until
    the next codec operation on the same SA. *)

val decap_of_slice :
  sa:Sa.params ->
  Resets_util.Slice.t ->
  (Resets_util.Seqno.t * Resets_util.Slice.t, error) result
(** [decap_slice] for a frame that is itself a view into a shared
    buffer — an rx arena slot holding a just-received datagram. No
    string is ever materialized: the ICV streams over the viewed
    bytes and the returned payload slice follows the usual scratch
    lifetime rules (additionally: it must be consumed before the arena
    slot is reused by the next receive batch). *)

val seq_of_packet : string -> Resets_util.Seqno.t option
(** Peek at the sequence number without verifying (what an adversary on
    the path can read). Seq64 framing only — an [Esn32] packet carries
    just 32 low bits at a different offset; use {!seq_of_packet_esn}. *)

val spi_of_packet : string -> int32 option

val seq_of_slice : Resets_util.Slice.t -> Resets_util.Seqno.t option
(** {!seq_of_packet} over an arena-backed frame, allocation-free. *)

val spi_of_slice : Resets_util.Slice.t -> int32 option
(** {!spi_of_packet} over an arena-backed frame — what the daemon's
    receive handler reads, in place, to hand each frame to the SA that
    owns it. *)

val overhead : sa:Sa.params -> int
(** Bytes added to a payload by [encap]. *)

(** {1 ESN framing (RFC 4304 style)}

    The wire carries only the low 32 bits of the sequence number; the
    ICV covers the {e full} 64-bit value, which the receiver infers
    from its window state ({!Esn.infer}) before verification. A wrong
    inference therefore fails the integrity check — exactly the
    RFC-specified behaviour, and the reason a SAVE/FETCH wakeup leap
    must recover an edge whose epoch is right. *)

val encap_esn : sa:Sa.params -> seq:Resets_util.Seqno.t -> payload:string -> string
(** Wire: [spi(4) | seq_low(4) | ciphertext | icv] with the ICV (and
    nonce) computed over the full [seq]. *)

val decap_esn :
  sa:Sa.params ->
  edge:Resets_util.Seqno.t ->
  w:int ->
  string ->
  (Resets_util.Seqno.t * string, error) result
(** [decap_esn ~sa ~edge ~w packet] infers the full sequence number
    from the packet's low 32 bits and the receiver's window position,
    then verifies and decrypts under it. *)

val decap_esn_slice :
  sa:Sa.params ->
  edge:Resets_util.Seqno.t ->
  w:int ->
  string ->
  (Resets_util.Seqno.t * Resets_util.Slice.t, error) result
(** Slice-returning variant of [decap_esn]; same lifetime rules as
    {!decap_slice}. *)

val seq_low_of_packet_esn : string -> int option
(** The wire's 32 low sequence bits, as an on-path observer reads
    them. *)

val seq_of_packet_esn :
  edge:Resets_util.Seqno.t -> w:int -> string -> Resets_util.Seqno.t option
(** Reconstruct the full sequence number an [Esn32] packet will verify
    under, given the receiver window position the observer assumes —
    the framing-aware counterpart of {!seq_of_packet}. [None] if the
    packet is short or the inferred epoch is pre-history. *)
