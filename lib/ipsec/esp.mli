(** ESP-style encapsulation: confidentiality + integrity + the sequence
    number the anti-replay machinery rides on.

    Wire layout (honest framing, not bit-exact RFC 4303):
    [spi(4) | seq | ciphertext | icv]. The SA's {!Sa.framing} sets the
    [seq] field: the full number as 8 big-endian bytes ([Seq64], the
    unbounded integer of the paper), or RFC 4304's ESN, its low 32 bits
    ([Esn32]). Either way the ICV covers the SPI, the full 64-bit
    number and the ciphertext (under ESN the SA's SPI, so the decoder
    also rejects a frame whose SPI is not the SA's), and the per-packet
    nonce is [salt(4) || seq(8)], so sequence-number reuse would also
    be nonce reuse — one more reason the SAVE/FETCH leap matters.

    One encoder ({!encap_into}) and one decoder ({!decap_range}) serve
    both framings. An [Esn32] receiver supplies its window's right
    edge, from which the decoder infers the full number ({!Esn.infer},
    with the SA's [window_width]) before it verifies the ICV; a wrong
    inference therefore fails the integrity check — exactly the
    RFC-specified behaviour, and the reason a SAVE/FETCH wakeup leap
    must recover an edge whose epoch is right.

    The codec is zero-copy, and each face is bounds and framing checks
    around one call of {!Resets_crypto.Esp_kernel} over the SA's packed
    key block: the encoder's call writes the packet into one buffer
    (header, in-place encrypt, ICV into the tail); the decoder's call
    verifies the ICV over the frame where it lies — a wire string or an
    rx-arena slot — and decrypts into the SA's scratch buffer. The
    plaintext comes back as a {!Resets_util.Slice.t} into that buffer
    (or into the frame itself under null encryption), valid until the
    next codec operation on the same SA. [encap], [decap],
    [decap_slice] and [decap_of_slice] are thin wrappers over the
    two. *)

type error =
  | Malformed  (** too short to parse *)
  | Bad_icv  (** integrity check failed — wrong key or tampering *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val encap_into :
  sa:Sa.params ->
  seq:Resets_util.Seqno.t ->
  payload:string ->
  Bytes.t ->
  off:int ->
  int
(** Write the wire packet directly at [off] in a caller-owned buffer
    (a tx pool slot) and return its total length. @raise
    Invalid_argument on negative [seq] or if the frame does not fit. *)

val encap : sa:Sa.params -> seq:Resets_util.Seqno.t -> payload:string -> string
(** [encap_into] a fresh exact-size buffer. @raise Invalid_argument on
    negative [seq]. *)

val decap_range :
  sa:Sa.params ->
  edge:Resets_util.Seqno.t ->
  string ->
  off:int ->
  len:int ->
  (Resets_util.Seqno.t * Resets_util.Slice.t, error) result
(** [decap_range ~sa ~edge frame ~off ~len] verifies the ICV of the
    [len]-byte frame at [off] in [frame] and returns (sequence number,
    payload). [edge] is the receiver window's right edge: an [Esn32]
    SA infers the full number from it, a [Seq64] SA ignores it. An
    frame whose SPI is not the SA's is [Bad_icv]. The payload
    is a view into the SA's scratch buffer (or into [frame],
    under null encryption), valid only until the next codec operation
    on the same SA and, for a frame in a shared buffer, until that
    buffer is reused. Replay-window processing is the caller's job — in
    IPsec the window check precedes and follows ICV verification; here
    the caller sequences those steps. @raise Invalid_argument if [off]
    and [len] do not lie within [frame]. *)

(** {1 Seq64 wrappers}

    The decoders below have no receiver edge to infer an ESN number
    from: given an [Esn32] SA they raise [Invalid_argument] rather than
    guess one. *)

val decap : sa:Sa.params -> string -> (Resets_util.Seqno.t * string, error) result
(** {!decap_range} over a whole wire string, the payload copied out. *)

val decap_slice :
  sa:Sa.params ->
  string ->
  (Resets_util.Seqno.t * Resets_util.Slice.t, error) result
(** {!decap_range} over a whole wire string. *)

val decap_of_slice :
  sa:Sa.params ->
  Resets_util.Slice.t ->
  (Resets_util.Seqno.t * Resets_util.Slice.t, error) result
(** {!decap_range} over a frame viewed in a shared buffer — an rx arena
    slot holding a just-received datagram. *)

(** {1 Header peeks} *)

val seq_of_packet :
  sa:Sa.params -> edge:Resets_util.Seqno.t -> string -> Resets_util.Seqno.t option
(** The sequence number a packet will verify under, unverified — what
    an on-path adversary can read, given the receiver window position
    it assumes ([edge], used by [Esn32] SAs only). [None] if the packet
    is short, if under [Seq64] its 64 bits are not a non-negative
    [int], or if under [Esn32] its SPI is not the SA's or the inferred
    epoch is before the first. *)

val spi_of_packet : string -> int32 option

val seq_of_slice : Resets_util.Slice.t -> Resets_util.Seqno.t option
(** A [Seq64] header's sequence number, read in place off an
    arena-backed frame. *)

val spi_of_slice : Resets_util.Slice.t -> int32 option
(** {!spi_of_packet} over an arena-backed frame — what the daemon's
    receive handler reads, in place, to hand each frame to the SA that
    owns it. *)

val overhead : sa:Sa.params -> int
(** Bytes added to a payload by [encap]: the header and the ICV. *)
