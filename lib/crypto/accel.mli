(** Runtime switch for the C crypto fast paths (SHA-256 block compress,
    ChaCha20 keystream XOR, and the ESP frame kernel {!Esp_kernel}
    builds on them). The pure-OCaml implementations remain the
    reference; the C primitives are bit-for-bit equivalent and are used
    by default when compiled in. Set [RESETS_NO_ACCEL=1] in the
    environment (checked once at startup) or call [set_enabled false]
    to force the pure paths — the differential tests do exactly that.

    The C side has two SHA-256 compressors: one on the x86-64 SHA
    extensions (SHA-NI), chosen by CPUID once when the library loads,
    and a portable one for every other host. *)

val available : unit -> bool
(** Whether the C primitives were compiled in. *)

val in_use : unit -> bool
(** Whether hot paths currently dispatch to the C primitives. *)

val set_enabled : bool -> unit
(** Toggle dispatch at runtime; [set_enabled true] is a no-op when
    [available ()] is [false]. *)

val sha256_impl : unit -> string
(** The compressor {!Sha256} currently dispatches to: ["sha-ni"],
    ["portable-c"], or ["ocaml"] when the C paths are off. *)

(**/**)

val sha256_blocks : int array -> Bytes.t -> int -> int -> unit
(** [sha256_blocks h data off n] runs the SHA-256 compression function
    over [n] 64-byte blocks of [data] starting at [off], updating the
    8 u32 chaining words in [h] in place, on the compressor chosen at
    load. Internal: bounds unchecked. *)

val sha256_blocks_portable : int array -> Bytes.t -> int -> int -> unit
(** [sha256_blocks] on the portable C compressor, whatever the CPU
    offers: what tests pin the SHA-NI one against. *)

val chacha20_xor : int array -> Bytes.t -> int -> int -> int -> unit
(** [chacha20_xor init buf off len counter0] XORs the ChaCha20
    keystream into [buf.(off .. off+len-1)]. [init] is the 16-word
    state template (constants, key, nonce); word 12 is ignored in
    favour of [counter0]. Internal: bounds unchecked. *)

external esp_seal :
  string -> int -> int -> int -> string -> Bytes.t -> int -> unit
  = "caml_resets_esp_seal_byte" "caml_resets_esp_seal"
[@@noalloc]
(** [esp_seal key shape spi seq payload dst off]: {!Esp_kernel.seal}'s
    C kernel, an external here so that a call is a direct C call.
    Internal: bounds unchecked. *)

external esp_unseal :
  string -> int -> int -> int -> string -> int -> int -> Bytes.t -> bool
  = "caml_resets_esp_unseal_byte" "caml_resets_esp_unseal"
[@@noalloc]
(** [esp_unseal key shape spi seq frame off clen scratch]:
    {!Esp_kernel.unseal}'s C kernel. Internal: bounds unchecked. *)
