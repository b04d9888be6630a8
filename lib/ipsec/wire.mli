(** Binary (de)serialization helpers for the ESP codec. *)

val put_be32 : Buffer.t -> int32 -> unit
val put_be64 : Buffer.t -> int64 -> unit

val get_be32 : string -> int -> int32
(** @raise Invalid_argument on short input. *)

val get_be32_bytes : Bytes.t -> int -> int32
(** [get_be32] over a mutable buffer (an rx arena slot) without
    aliasing it as a string. @raise Invalid_argument on short input. *)

val get_be64_bytes : Bytes.t -> int -> int64
(** @raise Invalid_argument on short input. *)
