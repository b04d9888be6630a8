(* The per-frame ESP kernel over one packed key block per SA.

   The block is 100 bytes: the HMAC inner and outer midstates (8
   little-endian u32 words each), the ChaCha20 key and the nonce salt.
   The C kernel (crypto_accel.c) seals or opens a whole frame in one
   call; the OCaml reference below computes the same bytes over the
   same block with the streaming Sha256 and Chacha20, and runs when
   [Accel] is off. *)

type key = string
type shape = int

let key_size = 100

let key_block ~auth_key ~enc_key ~salt =
  if String.length enc_key <> 32 then
    invalid_arg "Esp_kernel.key_block: enc_key must be 32 bytes";
  if String.length salt <> 4 then
    invalid_arg "Esp_kernel.key_block: salt must be 4 bytes";
  let b = Bytes.create key_size in
  let put_midstate off ms =
    Array.iteri
      (fun i w -> Bytes.set_int32_le b (off + (4 * i)) (Int32.of_int w))
      (Sha256.midstate_words ms)
  in
  let inner, outer = Hmac.pad_midstates ~key:auth_key in
  put_midstate 0 inner;
  put_midstate 32 outer;
  Bytes.blit_string enc_key 0 b 64 32;
  Bytes.blit_string salt 0 b 96 4;
  Bytes.unsafe_to_string b

(* bits 0-7 the header length, 8-15 the ICV length, 16 the cipher *)
let shape ~header_length ~icv_length ~cipher =
  if header_length <> 8 && header_length <> 12 then
    invalid_arg "Esp_kernel.shape: header_length must be 8 or 12";
  if icv_length < 1 || icv_length > Sha256.digest_size then
    invalid_arg "Esp_kernel.shape: icv_length out of range";
  header_length lor (icv_length lsl 8) lor if cipher then 0x10000 else 0

let header_length s = s land 0xff
let icv_length s = (s lsr 8) land 0xff
let cipher s = s land 0x10000 <> 0

(* ------------------------------------------------------------------ *)
(* OCaml reference *)

(* spi(4) || seq(8), big-endian: what the ICV covers before the
   ciphertext, and the last 8 bytes of the nonce. *)
let long_header ~spi ~seq =
  let hdr = Bytes.create 12 in
  Bytes.set_int32_be hdr 0 (Int32.of_int spi);
  Bytes.set_int64_be hdr 4 (Int64.of_int seq);
  hdr

let midstate key off =
  Sha256.midstate_of_words
    (Array.init 8 (fun i -> Int32.to_int (String.get_int32_le key (off + (4 * i)))))
    ~total:Sha256.block_size

let mac key hdr data ~off ~len =
  let ctx = Sha256.init () and tag = Bytes.create Sha256.digest_size in
  Sha256.restore ctx (midstate key 0);
  Sha256.feed_bytes ctx hdr ~off:0 ~len:12;
  Sha256.feed_sub ctx data ~off ~len;
  Sha256.finalize_into ctx tag ~off:0;
  Sha256.restore ctx (midstate key 32);
  Sha256.feed_bytes ctx tag ~off:0 ~len:Sha256.digest_size;
  Sha256.finalize_into ctx tag ~off:0;
  tag

let crypt key hdr buf ~off ~len =
  let nonce = Bytes.create 12 in
  Bytes.blit_string key 96 nonce 0 4;
  Bytes.blit hdr 4 nonce 4 8;
  Chacha20.crypt_into
    (Chacha20.state ~key:(String.sub key 64 32))
    ~nonce buf ~off ~len

let seal_reference key ~shape ~spi ~seq payload dst ~off =
  let hlen = header_length shape and plen = String.length payload in
  let hdr = long_header ~spi ~seq in
  Bytes.blit hdr 0 dst off 4;
  Bytes.blit hdr (16 - hlen) dst (off + 4) (hlen - 4);
  Bytes.blit_string payload 0 dst (off + hlen) plen;
  if cipher shape then crypt key hdr dst ~off:(off + hlen) ~len:plen;
  let tag = mac key hdr (Bytes.unsafe_to_string dst) ~off:(off + hlen) ~len:plen in
  Bytes.blit tag 0 dst (off + hlen + plen) (icv_length shape)

let unseal_reference key ~shape ~spi ~seq frame ~off ~len scratch =
  let ct = off + header_length shape and hdr = long_header ~spi ~seq in
  Ct.equal_sub frame ~off:(ct + len) (mac key hdr frame ~off:ct ~len)
    ~len:(icv_length shape)
  && begin
       if cipher shape then begin
         Bytes.blit_string frame ct scratch 0 len;
         crypt key hdr scratch ~off:0 ~len
       end;
       true
     end

(* ------------------------------------------------------------------ *)

let seal key ~shape ~spi ~seq payload dst ~off =
  if Accel.in_use () then Accel.esp_seal key shape spi seq payload dst off
  else seal_reference key ~shape ~spi ~seq payload dst ~off

let unseal key ~shape ~spi ~seq frame ~off ~len scratch =
  if Accel.in_use () then Accel.esp_unseal key shape spi seq frame off len scratch
  else unseal_reference key ~shape ~spi ~seq frame ~off ~len scratch
