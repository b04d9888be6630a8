open Resets_util

type error = Malformed | Bad_icv

let error_to_string = function
  | Malformed -> "malformed"
  | Bad_icv -> "bad-icv"

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

(* spi(4), then the sequence number: all 64 bits, or the ESN's low 32. *)
let header_length (sa : Sa.params) =
  match sa.algo.framing with Sa.Seq64 -> 12 | Sa.Esn32 -> 8

let overhead ~sa = header_length sa + Sa.icv_length sa.Sa.algo.integ

(* The per-packet nonce is salt(4) ‖ seq(8 BE); the salt half is
   prefilled at key-derivation time, so arming it is one be64 write. *)
let arm_nonce (sa : Sa.params) ~seq =
  Wire.set_be64 sa.crypto.nonce 4 (Int64.of_int seq);
  sa.crypto.nonce

let encrypt_in_place (sa : Sa.params) ~seq buf ~off ~len =
  match sa.algo.encr with
  | Sa.Null_encr -> ()
  | Sa.Chacha20 ->
    Resets_crypto.Chacha20.crypt_into sa.crypto.cipher
      ~nonce:(arm_nonce sa ~seq) buf ~off ~len

(* Start the ICV over what it covers: the long header spi ‖ seq(8 BE),
   then the [clen] ciphertext bytes after the frame's header. Under
   Seq64 that header is the frame's own, so the whole run is MACed in
   place. Under ESN the wire holds only the low half, so the long
   header is rebuilt in the SA's [hdr] scratch (RFC 4304's implicit
   high-order bits) and the streaming HMAC takes the two pieces with no
   concatenation. *)
let mac_covered (sa : Sa.params) ~seq frame ~off ~clen =
  let st = sa.crypto.hmac in
  Resets_crypto.Hmac.start st;
  (match sa.algo.framing with
  | Sa.Seq64 -> Resets_crypto.Hmac.add_sub st frame ~off ~len:(12 + clen)
  | Sa.Esn32 ->
    let hdr = sa.crypto.hdr in
    Wire.set_be32 hdr 0 sa.spi;
    Wire.set_be64 hdr 4 (Int64.of_int seq);
    Resets_crypto.Hmac.add_bytes st hdr ~off:0 ~len:12;
    Resets_crypto.Hmac.add_sub st frame ~off:(off + 8) ~len:clen);
  st

let encap_into ~(sa : Sa.params) ~seq ~payload dst ~off =
  if seq < 0 then invalid_arg "Esp.encap_into: negative sequence number";
  let hlen = header_length sa and icv_len = Sa.icv_length sa.algo.integ in
  let plen = String.length payload in
  let total = hlen + plen + icv_len in
  if off < 0 || off + total > Bytes.length dst then
    invalid_arg "Esp.encap_into: out of bounds";
  Wire.set_be32 dst off sa.spi;
  (match sa.algo.framing with
  | Sa.Seq64 -> Wire.set_be64 dst (off + 4) (Int64.of_int seq)
  | Sa.Esn32 -> Wire.set_be32 dst (off + 4) (Int32.of_int (Esn.low_of seq)));
  Bytes.blit_string payload 0 dst (off + hlen) plen;
  encrypt_in_place sa ~seq dst ~off:(off + hlen) ~len:plen;
  let st = mac_covered sa ~seq (Bytes.unsafe_to_string dst) ~off ~clen:plen in
  Resets_crypto.Hmac.finish_into st ~bytes:icv_len ~dst
    ~dst_off:(off + hlen + plen);
  total

let encap ~(sa : Sa.params) ~seq ~payload =
  if seq < 0 then invalid_arg "Esp.encap: negative sequence number";
  let out = Bytes.create (overhead ~sa + String.length payload) in
  let (_ : int) = encap_into ~sa ~seq ~payload out ~off:0 in
  Bytes.unsafe_to_string out

(* Decrypt the ciphertext range into the SA's scratch buffer and
   return a slice of the plaintext (valid until the next codec
   operation on the same SA). Null-encryption payloads are viewed in
   the frame itself — no copy at all. *)
let plaintext_slice (sa : Sa.params) ~seq frame ~off ~len =
  match sa.algo.encr with
  | Sa.Null_encr -> Slice.of_sub_string frame ~off ~len
  | Sa.Chacha20 ->
    let scratch = Sa.scratch_bytes sa len in
    Bytes.blit_string frame off scratch 0 len;
    Resets_crypto.Chacha20.crypt_into sa.crypto.cipher
      ~nonce:(arm_nonce sa ~seq) scratch ~off:0 ~len;
    Slice.make scratch ~off:0 ~len

(* The number a frame verifies under: read whole, or inferred from the
   ESN's low half and the receiver's [edge]. Negative when it cannot
   verify: the inferred epoch is before the first, or an ESN frame's
   SPI is not the SA's (its ICV covers the SA's SPI, not the wire's). *)
let frame_seq (sa : Sa.params) ~edge frame ~off =
  match sa.algo.framing with
  | Sa.Seq64 -> Int64.to_int (Wire.get_be64 frame (off + 4))
  | Sa.Esn32 ->
    if not (Int32.equal (Wire.get_be32 frame off) sa.spi) then -1
    else
      Esn.infer ~edge ~w:sa.window_width
        ~seq_low:(Int32.to_int (Wire.get_be32 frame (off + 4)) land 0xffffffff)

(* [frame] may be a whole wire string or a window into a shared rx
   arena; nothing below assumes the frame starts at offset 0. *)
let decap_range ~(sa : Sa.params) ~edge frame ~off ~len =
  let hlen = header_length sa and icv_len = Sa.icv_length sa.algo.integ in
  if len < hlen + icv_len then Error Malformed
  else begin
    let seq = frame_seq sa ~edge frame ~off in
    let clen = len - hlen - icv_len in
    if
      seq < 0
      || not
           (Resets_crypto.Hmac.finish_verify
              (mac_covered sa ~seq frame ~off ~clen)
              ~tag:frame ~tag_off:(off + hlen + clen) ~tag_len:icv_len)
    then Error Bad_icv
    else Ok (seq, plaintext_slice sa ~seq frame ~off:(off + hlen) ~len:clen)
  end

(* The wrappers below have no receiver edge to infer an ESN number
   from: they refuse an ESN SA rather than guess one. *)
let seq64_only (sa : Sa.params) =
  match sa.algo.framing with
  | Sa.Seq64 -> ()
  | Sa.Esn32 -> invalid_arg "Esp: an ESN SA decodes through decap_range ~edge"

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
