(** HMAC-SHA-256 (RFC 2104), the integrity-check-value algorithm used
    by the ESP substrate. Validated against RFC 4231 vectors.

    The streaming [state] API precomputes the ipad/opad key blocks
    once per key; the per-SA datapath holds one and reuses it for
    every packet. A state serves one MAC at a time: [start], any
    number of [add_*] calls over the covered bytes (which need not be
    contiguous in memory), then one finish. *)

val mac : key:string -> string -> string
(** 32-byte tag. Keys longer than the block size are hashed first, per
    RFC 2104. *)

val mac_truncated : key:string -> bytes:int -> string -> string
(** Leading [bytes] of the tag (ESP commonly truncates to 12 or 16).
    @raise Invalid_argument if [bytes] is not in [\[1, 32\]]. *)

val verify : key:string -> tag:string -> string -> bool
(** Constant-time check of a (possibly truncated) tag. *)

type state
(** Reusable keyed HMAC state with precomputed ipad/opad midstates. *)

val state : key:string -> state

val start : state -> unit
(** Begin a new MAC; discards any in-progress computation. *)

val add_string : state -> string -> unit
val add_sub : state -> string -> off:int -> len:int -> unit
val add_bytes : state -> bytes -> off:int -> len:int -> unit

val finish_into : state -> bytes:int -> dst:Bytes.t -> dst_off:int -> unit
(** Write the leading [bytes] of the tag at [dst_off]; no allocation.
    @raise Invalid_argument if [bytes] is not in [\[1, 32\]]. *)

val finish : state -> string
(** The full 32-byte tag. *)

val finish_verify : state -> tag:string -> tag_off:int -> tag_len:int -> bool
(** Finish and compare, constant-time, against [tag_len] bytes of
    [tag] starting at [tag_off] — e.g. the ICV field inside a received
    packet — without extracting them. Returns [false] on out-of-range
    lengths. *)
