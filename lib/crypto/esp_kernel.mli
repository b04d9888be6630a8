(** The ESP frame kernel: one call seals a frame and one call opens
    it, over one packed key block per SA.

    A frame is [spi(4) | seq | ciphertext | icv], where [seq] is the
    sequence number's 8 big-endian bytes or, under ESN, its low 4. The
    ICV is HMAC-SHA-256 over spi(4) ‖ seq(8) ‖ ciphertext, truncated to
    the shape's ICV length; the ChaCha20 nonce is salt(4) ‖ seq(8),
    counter from 1.

    Under {!Accel.in_use} both calls run the C kernel in
    [crypto_accel.c], on the SHA-256 compressor chosen at load;
    otherwise ([RESETS_NO_ACCEL=1], [Accel.set_enabled false]) they run
    an OCaml reference over the same block, built on {!Sha256} and
    {!Chacha20}. Both produce the same bytes and the same verdicts.
    Neither keeps state between calls, so SAs on different domains may
    call them at once. *)

type key
(** 100 bytes: the HMAC ipad and opad midstates, the ChaCha20 key and
    the nonce salt. *)

val key_block : auth_key:string -> enc_key:string -> salt:string -> key
(** @raise Invalid_argument unless [enc_key] is 32 bytes and [salt] 4. *)

type shape [@@immediate]
(** How an SA frames: header length, ICV length, cipher on or off. *)

val shape : header_length:int -> icv_length:int -> cipher:bool -> shape
(** @raise Invalid_argument unless [header_length] is 8 or 12 and
    [icv_length] is in [\[1, 32\]]. *)

val header_length : shape -> int
(** 12 when the whole sequence number is on the wire, 8 under ESN. *)

val icv_length : shape -> int
val cipher : shape -> bool

(** {1 Kernel calls}

    Bounds are unchecked: the caller ([Resets_ipsec.Esp]) checks them
    first. [spi] is taken modulo 2{^32}; [seq] must be non-negative. *)

val seal :
  key -> shape:shape -> spi:int -> seq:int -> string -> Bytes.t -> off:int -> unit
(** [seal key ~shape ~spi ~seq payload dst ~off] writes the frame of
    [payload] at [off] in [dst]: the header, the payload encrypted in
    place, the ICV into the tail ([header_length + length payload +
    icv_length] bytes). *)

val unseal :
  key ->
  shape:shape ->
  spi:int ->
  seq:int ->
  string ->
  off:int ->
  len:int ->
  Bytes.t ->
  bool
(** [unseal key ~shape ~spi ~seq frame ~off ~len scratch] compares the
    ICV of the frame at [off] in [frame], whose ciphertext is [len]
    bytes, with the one computed under [seq], in constant time. On a
    match with the cipher on it decrypts the ciphertext into
    [scratch.[0 .. len-1]]. Returns whether the ICV matched. *)
