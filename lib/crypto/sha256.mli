(** SHA-256 (FIPS 180-4), implemented from scratch.

    Provides the integrity primitive under the IPsec substrate's ICVs;
    validated against the FIPS test vectors in the test suite.

    A [ctx] is reusable: after [finalize]/[finalize_into], call
    [reset] (or [restore]) to absorb a new message without
    reallocating. The [midstate] mechanism captures the chaining state
    on a block boundary so a fixed prefix (e.g. an HMAC key pad) is
    compressed once and resumed per message.

    One message may be at most 2{^59} − 1 bytes long (FIPS 180-4
    allows 2{^61}): the context counts absorbed bytes in a native
    [int] so that feeding allocates nothing, and the message's bit
    length must fit in OCaml's 63-bit [int]. Longer input gives a
    wrong digest, not an exception. *)

type ctx

val init : unit -> ctx

val reset : ctx -> unit
(** Return the context to the freshly-initialised state. *)

val feed : ctx -> string -> unit
(** Absorb bytes; may be called repeatedly. *)

val feed_sub : ctx -> string -> off:int -> len:int -> unit
(** Absorb a substring without copying it out first. *)

val feed_bytes : ctx -> bytes -> off:int -> len:int -> unit

val finalize : ctx -> string
(** 32-byte digest. The context must not be fed again until [reset] or
    [restore]. @raise Invalid_argument on reuse without reset. *)

val finalize_into : ctx -> bytes -> off:int -> unit
(** Like [finalize], but writes the 32-byte digest at [off] in [dst]
    without allocating. *)

type midstate
(** Chaining state captured on a 64-byte block boundary. *)

val midstate : ctx -> midstate
(** @raise Invalid_argument if the context holds buffered partial-block
    bytes. *)

val midstate_words : midstate -> int array
(** The 8 chaining words (u32s, FIPS order) of a midstate, copied. *)

val midstate_of_words : int array -> total:int -> midstate
(** The midstate whose chaining words are the 8 u32s given, after
    [total] absorbed bytes. @raise Invalid_argument unless there are 8
    words and [total] is a non-negative multiple of 64. *)

val restore : ctx -> midstate -> unit
(** Rewind the context to a captured midstate; the context becomes
    feedable again regardless of prior finalization. *)

val digest : string -> string
(** One-shot digest of a full message. *)

val hex_digest : string -> string

val digest_size : int
(** 32. *)

val block_size : int
(** 64. *)
