let hash_len = Sha256.digest_size

let extract ~salt ~ikm = Hmac.mac ~key:salt ikm

let expand ~prk ~info ~length =
  if length <= 0 || length > 255 * hash_len then
    invalid_arg "Kdf.expand: length out of range";
  let blocks = (length + hash_len - 1) / hash_len in
  (* T(i) = HMAC(prk, T(i-1) | info | i), T(0) empty. One keyed state
     serves every block, so the PRK's pads are compressed once. *)
  let st = Hmac.state ~key:prk in
  let out = Bytes.create (blocks * hash_len) in
  let counter = Bytes.create 1 in
  for i = 1 to blocks do
    Hmac.start st;
    if i > 1 then Hmac.add_bytes st out ~off:((i - 2) * hash_len) ~len:hash_len;
    Hmac.add_string st info;
    Bytes.set counter 0 (Char.chr i);
    Hmac.add_bytes st counter ~off:0 ~len:1;
    Hmac.finish_into st ~bytes:hash_len ~dst:out ~dst_off:((i - 1) * hash_len)
  done;
  Bytes.sub_string out 0 length

let derive ~salt ~ikm ~info ~length = expand ~prk:(extract ~salt ~ikm) ~info ~length

let stretch ~iterations input =
  if iterations < 0 then invalid_arg "Kdf.stretch: negative iterations";
  let rec loop acc n = if n = 0 then acc else loop (Sha256.digest acc) (n - 1) in
  loop input iterations
