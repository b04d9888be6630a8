(* Runtime switch for the C fast paths in crypto_accel.c.

   The pure-OCaml implementations in Sha256/Chacha20/Esp_kernel stay
   the reference and are always compiled; the C primitives compute the
   identical functions over the same state layout. The switch
   exists so differential tests can force the fallback and so a
   miscompiled platform can be rescued with RESETS_NO_ACCEL=1 without
   rebuilding. Which C SHA-256 compressor runs (SHA-NI or portable) is
   fixed by CPUID when the library loads, not by this switch. *)

external available : unit -> bool = "caml_resets_crypto_accel_available"

external sha256_blocks : int array -> Bytes.t -> int -> int -> unit
  = "caml_resets_sha256_blocks"
[@@noalloc]

external sha256_blocks_portable : int array -> Bytes.t -> int -> int -> unit
  = "caml_resets_sha256_blocks_portable"
[@@noalloc]

external sha256_sha_ni : unit -> bool = "caml_resets_sha256_sha_ni"

external chacha20_xor : int array -> Bytes.t -> int -> int -> int -> unit
  = "caml_resets_chacha20_xor"
[@@noalloc]

external esp_seal :
  string -> int -> int -> int -> string -> Bytes.t -> int -> unit
  = "caml_resets_esp_seal_byte" "caml_resets_esp_seal"
[@@noalloc]

external esp_unseal :
  string -> int -> int -> int -> string -> int -> int -> Bytes.t -> bool
  = "caml_resets_esp_unseal_byte" "caml_resets_esp_unseal"
[@@noalloc]

let enabled =
  ref (available () && Sys.getenv_opt "RESETS_NO_ACCEL" = None)

let set_enabled b = enabled := b && available ()
let in_use () = !enabled

let sha256_impl () =
  if not !enabled then "ocaml"
  else if sha256_sha_ni () then "sha-ni"
  else "portable-c"
