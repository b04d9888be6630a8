(* FIPS 180-4 SHA-256.

   32-bit arithmetic is carried in native [int]s masked to 32 bits: on
   64-bit OCaml an [int] holds any u32 without boxing, where [Int32]
   boxes every intermediate — this file is under every per-packet ICV,
   so the unboxed representation is worth roughly 4x on the hot path
   and removes all per-block allocation. 64-bit [int] assumed. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 chaining values, each a u32 *)
  block : Bytes.t; (* 64-byte staging buffer *)
  mutable block_len : int;
  mutable total_len : int; (* bytes absorbed; < 2^59, see the .mli *)
  mutable finalized : bool;
  w : int array; (* message schedule scratch *)
}

let digest_size = 32
let block_size = 64

let iv =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
    0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
  |]

let init () =
  {
    h = Array.copy iv;
    block = Bytes.create block_size;
    block_len = 0;
    total_len = 0;
    finalized = false;
    w = Array.make 64 0;
  }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.block_len <- 0;
  ctx.total_len <- 0;
  ctx.finalized <- false

(* A resumable chaining state, captured on a block boundary. The HMAC
   layer uses it to precompute the ipad/opad prefixes once per key. *)
type midstate = {
  ms_h : int array;
  ms_total : int;
}

let midstate ctx =
  if ctx.block_len <> 0 then
    invalid_arg "Sha256.midstate: context not on a block boundary";
  { ms_h = Array.copy ctx.h; ms_total = ctx.total_len }

let midstate_words ms = Array.copy ms.ms_h

let midstate_of_words h ~total =
  if Array.length h <> 8 || total < 0 || total mod block_size <> 0 then
    invalid_arg "Sha256.midstate_of_words";
  { ms_h = Array.map (fun w -> w land 0xffffffff) h; ms_total = total }

let restore ctx ms =
  Array.blit ms.ms_h 0 ctx.h 0 8;
  ctx.block_len <- 0;
  ctx.total_len <- ms.ms_total;
  ctx.finalized <- false

let mask = 0xffffffff

let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

let[@inline] big_sigma0 x = rotr x 2 lxor rotr x 13 lxor rotr x 22
let[@inline] big_sigma1 x = rotr x 6 lxor rotr x 11 lxor rotr x 25
let[@inline] small_sigma0 x = rotr x 7 lxor rotr x 18 lxor (x lsr 3)
let[@inline] small_sigma1 x = rotr x 17 lxor rotr x 19 lxor (x lsr 10)
let[@inline] ch x y z = x land y lxor (lnot x land mask land z)
let[@inline] maj x y z = x land y lxor (x land z) lxor (y land z)

let[@inline] get_be32 b off =
  (Char.code (Bytes.unsafe_get b off) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (off + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get b (off + 3))

let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i (get_be32 block (off + (4 * i)))
  done;
  for i = 16 to 63 do
    Array.unsafe_set w i
      ((small_sigma1 (Array.unsafe_get w (i - 2))
        + Array.unsafe_get w (i - 7)
        + small_sigma0 (Array.unsafe_get w (i - 15))
        + Array.unsafe_get w (i - 16))
       land mask)
  done;
  let a = ref ctx.h.(0) and b = ref ctx.h.(1) and c = ref ctx.h.(2) and d = ref ctx.h.(3) in
  let e = ref ctx.h.(4) and f = ref ctx.h.(5) and g = ref ctx.h.(6) and h = ref ctx.h.(7) in
  for i = 0 to 63 do
    let t1 =
      !h + big_sigma1 !e + ch !e !f !g + Array.unsafe_get k i + Array.unsafe_get w i
    in
    let t2 = big_sigma0 !a + maj !a !b !c in
    h := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask
  done;
  ctx.h.(0) <- (ctx.h.(0) + !a) land mask;
  ctx.h.(1) <- (ctx.h.(1) + !b) land mask;
  ctx.h.(2) <- (ctx.h.(2) + !c) land mask;
  ctx.h.(3) <- (ctx.h.(3) + !d) land mask;
  ctx.h.(4) <- (ctx.h.(4) + !e) land mask;
  ctx.h.(5) <- (ctx.h.(5) + !f) land mask;
  ctx.h.(6) <- (ctx.h.(6) + !g) land mask;
  ctx.h.(7) <- (ctx.h.(7) + !h) land mask

(* All compression goes through here: one dispatch between the C fast
   path (whole run of blocks in a single call) and the portable OCaml
   compress. *)
let[@inline] compress_blocks ctx src off nblocks =
  if Accel.in_use () then Accel.sha256_blocks ctx.h src off nblocks
  else
    for b = 0 to nblocks - 1 do
      compress ctx src (off + (block_size * b))
    done

let feed_bytes ctx src ~off ~len =
  if ctx.finalized then invalid_arg "Sha256.feed: context already finalized";
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Sha256.feed_bytes: out of bounds";
  ctx.total_len <- ctx.total_len + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled staging block first. *)
  if ctx.block_len > 0 then begin
    let take = min !remaining (block_size - ctx.block_len) in
    Bytes.blit src !pos ctx.block ctx.block_len take;
    ctx.block_len <- ctx.block_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.block_len = block_size then begin
      compress_blocks ctx ctx.block 0 1;
      ctx.block_len <- 0
    end
  end;
  let full = !remaining / block_size in
  if full > 0 then begin
    compress_blocks ctx src !pos full;
    pos := !pos + (full * block_size);
    remaining := !remaining - (full * block_size)
  end;
  if !remaining > 0 then begin
    Bytes.blit src !pos ctx.block 0 !remaining;
    ctx.block_len <- !remaining
  end

let feed ctx s =
  feed_bytes ctx (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let feed_sub ctx s ~off ~len =
  feed_bytes ctx (Bytes.unsafe_of_string s) ~off ~len

(* Padding happens in the context's own staging block, and the length
   and digest are written a word at a time: no allocation. *)
let finalize_into ctx dst ~off =
  if ctx.finalized then invalid_arg "Sha256.finalize: context already finalized";
  if off < 0 || off + digest_size > Bytes.length dst then
    invalid_arg "Sha256.finalize_into: out of bounds";
  let bl = ctx.block_len in
  Bytes.set ctx.block bl '\x80';
  if bl + 1 + 8 > block_size then begin
    Bytes.fill ctx.block (bl + 1) (block_size - bl - 1) '\x00';
    compress_blocks ctx ctx.block 0 1;
    Bytes.fill ctx.block 0 (block_size - 8) '\x00'
  end
  else Bytes.fill ctx.block (bl + 1) (block_size - 8 - (bl + 1)) '\x00';
  Bytes.set_int64_be ctx.block (block_size - 8) (Int64.of_int (ctx.total_len lsl 3));
  compress_blocks ctx ctx.block 0 1;
  ctx.block_len <- 0;
  ctx.finalized <- true;
  for i = 0 to 7 do
    Bytes.set_int32_be dst (off + (4 * i)) (Int32.of_int ctx.h.(i))
  done

let finalize ctx =
  let out = Bytes.create digest_size in
  finalize_into ctx out ~off:0;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let hex_digest s = Resets_util.Hex.encode (digest s)
