open Resets_util

type error = Malformed | Bad_icv

let error_to_string = function
  | Malformed -> "malformed"
  | Bad_icv -> "bad-icv"

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

module Kernel = Resets_crypto.Esp_kernel

(* spi(4), then the sequence number: all 64 bits, or the ESN's low 32. *)
let header_length (sa : Sa.params) = Kernel.header_length sa.shape

let overhead ~sa = header_length sa + Kernel.icv_length sa.Sa.shape

(* Each face is bounds and framing checks around one kernel call, which
   writes or opens the whole frame (Esp_kernel); only a frame longer
   than the decap scratch takes two (open_long). *)
let encap_into ~(sa : Sa.params) ~seq ~payload dst ~off =
  if seq < 0 then invalid_arg "Esp.encap_into: negative sequence number";
  let total = overhead ~sa + String.length payload in
  if off < 0 || off > Bytes.length dst - total then
    invalid_arg "Esp.encap_into: out of bounds";
  Kernel.seal sa.key ~shape:sa.shape ~spi:sa.wire_spi ~seq payload dst ~off;
  total

let encap ~(sa : Sa.params) ~seq ~payload =
  if seq < 0 then invalid_arg "Esp.encap: negative sequence number";
  let out = Bytes.create (overhead ~sa + String.length payload) in
  let (_ : int) = encap_into ~sa ~seq ~payload out ~off:0 in
  Bytes.unsafe_to_string out

let[@inline] be32 s off = Int32.to_int (String.get_int32_be s off) land 0xffffffff

(* The ICV covers the SA's SPI, not the wire's: a frame that names
   another SPI cannot verify. *)
let own_spi (sa : Sa.params) frame ~off = be32 frame off = sa.wire_spi

(* The number a frame verifies under: read whole, or inferred from the
   ESN's low half and the receiver's [edge]. Negative when it cannot
   verify: the inferred epoch is before the first, or the 64 wire bits
   are not a non-negative [int] (the ICV covers the number rebuilt from
   the [int], so the bits must round-trip). The caller has checked that
   the header lies in [frame]. *)
let frame_seq (sa : Sa.params) ~edge frame ~off =
  if header_length sa = 12 then
    let v = String.get_int64_be frame (off + 4) in
    if Int64.compare v 0L < 0 then -1 else Int64.to_int v
  else Esn.infer ~edge ~w:sa.window_width ~seq_low:(be32 frame (off + 4))

(* A frame longer than the SA's scratch buffer: verified with the
   cipher off before the buffer grows, so that a forged frame cannot
   enlarge it, then opened into the grown buffer. *)
let open_long (sa : Sa.params) ~seq frame ~off ~clen =
  let verify_only =
    Kernel.shape ~header_length:(header_length sa)
      ~icv_length:(Kernel.icv_length sa.shape) ~cipher:false
  in
  if
    Kernel.unseal sa.key ~shape:verify_only ~spi:sa.wire_spi ~seq frame ~off
      ~len:clen sa.scratch
    && Kernel.unseal sa.key ~shape:sa.shape ~spi:sa.wire_spi ~seq frame ~off
         ~len:clen (Sa.scratch_bytes sa clen)
  then Ok (seq, Slice.make sa.scratch ~off:0 ~len:clen)
  else Error Bad_icv

(* [frame] may be a whole wire string or a window into a shared rx
   arena; nothing below assumes the frame starts at offset 0. The
   plaintext is decrypted into the SA's scratch buffer (valid until the
   next codec operation on the same SA); a null-encryption payload is
   viewed in the frame itself, with no copy at all. *)
let decap_range ~(sa : Sa.params) ~edge frame ~off ~len =
  if off < 0 || len < 0 || off > String.length frame - len then
    invalid_arg "Esp.decap_range: out of bounds";
  let hlen = header_length sa in
  let clen = len - hlen - Kernel.icv_length sa.shape in
  if clen < 0 then Error Malformed
  else if not (own_spi sa frame ~off) then Error Bad_icv
  else begin
    let seq = frame_seq sa ~edge frame ~off in
    let cipher = Kernel.cipher sa.shape in
    if seq < 0 then Error Bad_icv
    else if cipher && clen > Bytes.length sa.scratch then
      open_long sa ~seq frame ~off ~clen
    else if
      Kernel.unseal sa.key ~shape:sa.shape ~spi:sa.wire_spi ~seq frame ~off
        ~len:clen sa.scratch
    then
      Ok
        ( seq,
          if cipher then Slice.make sa.scratch ~off:0 ~len:clen
          else Slice.of_sub_string frame ~off:(off + hlen) ~len:clen )
    else Error Bad_icv
  end

(* The wrappers below have no receiver edge to infer an ESN number
   from: they refuse an ESN SA rather than guess one. *)
let seq64_only sa =
  if header_length sa <> 12 then
    invalid_arg "Esp: an ESN SA decodes through decap_range ~edge"

let decap_slice ~sa packet =
  seq64_only sa;
  decap_range ~sa ~edge:0 packet ~off:0 ~len:(String.length packet)

let decap_of_slice ~sa (s : Slice.t) =
  seq64_only sa;
  decap_range ~sa ~edge:0 (Bytes.unsafe_to_string s.base) ~off:s.off ~len:s.len

let decap ~sa packet =
  Result.map (fun (seq, s) -> (seq, Slice.to_string s)) (decap_slice ~sa packet)

let seq_of_packet ~sa ~edge packet =
  if String.length packet < header_length sa then None
  else if header_length sa = 8 && not (own_spi sa packet ~off:0) then None
  else
    let seq = frame_seq sa ~edge packet ~off:0 in
    if seq < 0 then None else Some seq

let spi_of_packet packet =
  if String.length packet < 4 then None else Some (Wire.get_be32 packet 0)

let seq_of_slice (s : Slice.t) =
  if s.len < 12 then None
  else Some (Int64.to_int (Wire.get_be64_bytes s.base (s.off + 4)))

let spi_of_slice (s : Slice.t) =
  if s.len < 4 then None else Some (Wire.get_be32_bytes s.base s.off)
