open Resets_util

type integ_alg = Hmac_sha256_128 | Hmac_sha256_full

type encr_alg = Chacha20 | Null_encr

type framing = Seq64 | Esn32

type algo = {
  integ : integ_alg;
  encr : encr_alg;
  framing : framing;
}

let icv_length = function
  | Hmac_sha256_128 -> 16
  | Hmac_sha256_full -> 32

type keys = {
  auth_key : string;
  enc_key : string;
  salt : string;
}

module Kernel = Resets_crypto.Esp_kernel

(* The per-frame codec (Esp) reads the first five fields and nothing
   else of the record, so they lead it. *)
type params = {
  wire_spi : int;
  shape : Kernel.shape;
  key : Kernel.key;
  mutable scratch : Bytes.t;
  window_width : int;
  spi : int32;
  algo : algo;
  keys : keys;
  arena : Sadb_flat.t option;
  lifetime_packets : int option;
}

let default_algo = { integ = Hmac_sha256_128; encr = Chacha20; framing = Seq64 }

let scratch_bytes (p : params) len =
  if Bytes.length p.scratch < len then begin
    let cap = ref (Bytes.length p.scratch) in
    while !cap < len do
      cap := !cap * 2
    done;
    p.scratch <- Bytes.create !cap
  end;
  p.scratch

let derive_params ?(algo = default_algo) ?(window_width = 64) ?arena
    ?lifetime_packets ~spi ~secret () =
  if window_width <= 0 then invalid_arg "Sa.derive_params: window_width must be positive";
  let info = Printf.sprintf "ipsec-resets sa %ld" spi in
  let material =
    Resets_crypto.Kdf.derive ~salt:"ipsec-resets-salt" ~ikm:secret ~info ~length:68
  in
  let keys =
    {
      auth_key = String.sub material 0 32;
      enc_key = String.sub material 32 32;
      salt = String.sub material 64 4;
    }
  in
  {
    wire_spi = Int32.to_int spi land 0xffffffff;
    shape =
      Kernel.shape
        ~header_length:(match algo.framing with Seq64 -> 12 | Esn32 -> 8)
        ~icv_length:(icv_length algo.integ)
        ~cipher:(algo.encr = Chacha20);
    key =
      Kernel.key_block ~auth_key:keys.auth_key ~enc_key:keys.enc_key
        ~salt:keys.salt;
    scratch = Bytes.create 256;
    window_width;
    spi;
    algo;
    keys;
    arena;
    lifetime_packets;
  }

(* The counters share the window's arena slot, so an SA's whole
   volatile state is one cache line. *)
type t = {
  params : params;
  window : Replay_window.t;
  hot : Sadb_flat.t;
  slot : int;
}

let create params =
  let w = params.window_width in
  let hot =
    match params.arena with
    | Some arena -> arena
    | None -> Sadb_flat.create ~capacity:1 ~w ()
  in
  let window = Replay_window.create (Replay_window.Flat_impl hot) ~w in
  let slot = Replay_window.slot window in
  Sadb_flat.set_send_seq hot slot Seqno.first;
  { params; window; hot; slot }

let send_seq t = Sadb_flat.send_seq t.hot t.slot
let set_send_seq t v = Sadb_flat.set_send_seq t.hot t.slot v
let packets_sent t = Sadb_flat.packets_sent t.hot t.slot
let packets_received t = Sadb_flat.packets_received t.hot t.slot

let note_received t =
  Sadb_flat.set_packets_received t.hot t.slot (packets_received t + 1)

let next_send_seq t =
  let s = send_seq t in
  set_send_seq t (Seqno.succ s);
  Sadb_flat.set_packets_sent t.hot t.slot (packets_sent t + 1);
  s

let lifetime_exceeded t =
  match t.params.lifetime_packets with
  | None -> false
  | Some limit -> packets_sent t >= limit || packets_received t >= limit

let volatile_reset t =
  set_send_seq t Seqno.first;
  Replay_window.volatile_reset t.window

let pp ppf t =
  Format.fprintf ppf "SA(spi=%ld, next_seq=%a, right_edge=%a, w=%d)" t.params.spi
    Seqno.pp (send_seq t) Seqno.pp
    (Replay_window.right_edge t.window)
    t.params.window_width
