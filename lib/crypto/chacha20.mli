(** ChaCha20 stream cipher (RFC 8439), the confidentiality primitive
    for the ESP substrate. Encryption and decryption are the same
    operation. Validated against the RFC 8439 test vector.

    The keyed [state] API parses the key once and XORs the keystream
    into a buffer in place, allocating nothing per call — the per-SA
    datapath holds one state per key. *)

val crypt : key:string -> nonce:string -> ?counter:int32 -> string -> string
(** XOR the input with the ChaCha20 keystream.
    @raise Invalid_argument on wrong key or nonce length. *)

val block : key:string -> nonce:string -> counter:int32 -> string
(** One 64-byte keystream block (exposed for tests). *)

type state
(** Reusable per-key cipher state. *)

val state : key:string -> state
(** @raise Invalid_argument on wrong key length. *)

val crypt_into :
  state -> nonce:Bytes.t -> ?counter:int32 -> Bytes.t -> off:int -> len:int -> unit
(** XOR the keystream for [nonce] into [buf.[off .. off+len-1]] in
    place; zero allocation. [nonce] must be 12 bytes.
    @raise Invalid_argument on bad nonce length or out-of-bounds
    range. *)
