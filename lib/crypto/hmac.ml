let block_size = Sha256.block_size
let tag_size = Sha256.digest_size

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let padded = Bytes.make block_size '\x00' in
  Bytes.blit_string key 0 padded 0 (String.length key);
  Bytes.unsafe_to_string padded

let xor_with s byte =
  let b = Bytes.create (String.length s) in
  for i = 0 to String.length s - 1 do
    Bytes.set b i (Char.unsafe_chr (Char.code s.[i] lxor byte))
  done;
  Bytes.unsafe_to_string b

(* Keyed state: the ipad/opad key blocks are compressed once at key
   setup and resumed per MAC, saving two of the four SHA-256 block
   compressions a short-message HMAC costs — and all key-pad
   allocation. One state serves one MAC computation at a time. *)
type state = {
  inner : Sha256.midstate;
  outer : Sha256.midstate;
  ctx : Sha256.ctx;
  tag : Bytes.t; (* 32-byte digest staging *)
}

(* The ipad and opad midstates of [key], computed in [ctx]. *)
let pads ctx ~key =
  let key = normalize_key key in
  Sha256.feed ctx (xor_with key 0x36);
  let inner = Sha256.midstate ctx in
  Sha256.reset ctx;
  Sha256.feed ctx (xor_with key 0x5c);
  (inner, Sha256.midstate ctx)

let pad_midstates ~key = pads (Sha256.init ()) ~key

let state ~key =
  let ctx = Sha256.init () in
  let inner, outer = pads ctx ~key in
  { inner; outer; ctx; tag = Bytes.create tag_size }

let start st = Sha256.restore st.ctx st.inner

let add_string st s = Sha256.feed st.ctx s
let add_sub st s ~off ~len = Sha256.feed_sub st.ctx s ~off ~len
let add_bytes st b ~off ~len = Sha256.feed_bytes st.ctx b ~off ~len

(* Close the inner hash and run the outer pass, leaving the full
   32-byte tag in [st.tag]. *)
let finish_tag st =
  Sha256.finalize_into st.ctx st.tag ~off:0;
  Sha256.restore st.ctx st.outer;
  Sha256.feed_bytes st.ctx st.tag ~off:0 ~len:tag_size;
  Sha256.finalize_into st.ctx st.tag ~off:0

let finish_into st ~bytes ~dst ~dst_off =
  if bytes < 1 || bytes > tag_size then
    invalid_arg "Hmac.finish_into: tag length out of range";
  finish_tag st;
  Bytes.blit st.tag 0 dst dst_off bytes

let finish st =
  finish_tag st;
  Bytes.to_string st.tag

let finish_verify st ~tag ~tag_off ~tag_len =
  if tag_len < 1 || tag_len > tag_size || tag_off < 0
     || tag_off + tag_len > String.length tag
  then false
  else begin
    finish_tag st;
    Ct.equal_sub tag ~off:tag_off st.tag ~len:tag_len
  end

let mac ~key msg =
  let st = state ~key in
  start st;
  add_string st msg;
  finish st

let mac_truncated ~key ~bytes msg =
  if bytes < 1 || bytes > tag_size then
    invalid_arg "Hmac.mac_truncated: tag length out of range";
  String.sub (mac ~key msg) 0 bytes

let verify ~key ~tag msg =
  let n = String.length tag in
  n >= 1 && n <= tag_size && Ct.equal tag (String.sub (mac ~key msg) 0 n)
