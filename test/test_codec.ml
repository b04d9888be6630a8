(* Differential suite: the zero-copy codec — one encoder and one
   decoder for both sequence-number framings — against a test-local
   reimplementation of the legacy string codecs (the pre-refactor Esp,
   one encoder and decoder per framing, rebuilt here from the public
   one-shot crypto APIs). The two must be observationally equivalent —
   byte-identical wires, agreeing decodes in both directions, agreeing
   rejections on truncation and tamper — or the refactor changed the
   protocol, not just the representation. The codec's one kernel call
   per frame has a C path and an OCaml reference; the kernel suite
   holds both to the legacy codec and to the codec's bounds checks. *)

open Resets_util
open Resets_crypto
open Resets_ipsec

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Legacy reference codec (string-slinging, as before the refactor) *)

module Legacy = struct
  let header_length = 12
  let esn_header_length = 8

  let nonce (sa : Sa.params) ~seq =
    let buf = Buffer.create 12 in
    Buffer.add_string buf sa.keys.salt;
    Wire.put_be64 buf (Int64.of_int seq);
    Buffer.contents buf

  let encrypt (sa : Sa.params) ~seq payload =
    match sa.algo.encr with
    | Sa.Null_encr -> payload
    | Sa.Chacha20 ->
      Chacha20.crypt ~key:sa.keys.enc_key ~nonce:(nonce sa ~seq) payload

  let decrypt = encrypt

  let icv (sa : Sa.params) covered =
    Hmac.mac_truncated ~key:sa.keys.auth_key
      ~bytes:(Sa.icv_length sa.algo.integ)
      covered

  let encap ~(sa : Sa.params) ~seq ~payload =
    let buf = Buffer.create (header_length + String.length payload + 32) in
    Wire.put_be32 buf sa.spi;
    Wire.put_be64 buf (Int64.of_int seq);
    Buffer.add_string buf (encrypt sa ~seq payload);
    let covered = Buffer.contents buf in
    covered ^ icv sa covered

  let decap ~(sa : Sa.params) packet =
    let icv_len = Sa.icv_length sa.algo.integ in
    let n = String.length packet in
    if n < header_length + icv_len then Error Esp.Malformed
    else begin
      let covered = String.sub packet 0 (n - icv_len) in
      let tag = String.sub packet (n - icv_len) icv_len in
      if not (Ct.equal tag (icv sa covered)) then Error Esp.Bad_icv
      else begin
        let seq = Int64.to_int (String.get_int64_be packet 4) in
        let ciphertext =
          String.sub packet header_length (n - icv_len - header_length)
        in
        Ok (seq, decrypt sa ~seq ciphertext)
      end
    end

  let esn_covered (sa : Sa.params) ~seq ciphertext =
    let buf = Buffer.create (12 + String.length ciphertext) in
    Wire.put_be32 buf sa.spi;
    Wire.put_be64 buf (Int64.of_int seq);
    Buffer.add_string buf ciphertext;
    Buffer.contents buf

  let esn_encap ~(sa : Sa.params) ~seq ~payload =
    let ciphertext = encrypt sa ~seq payload in
    let tag = icv sa (esn_covered sa ~seq ciphertext) in
    let buf = Buffer.create (esn_header_length + String.length ciphertext + 32) in
    Wire.put_be32 buf sa.spi;
    Wire.put_be32 buf (Int32.of_int (seq land 0xffffffff));
    Buffer.add_string buf ciphertext;
    Buffer.add_string buf tag;
    Buffer.contents buf

  let esn_decap ~(sa : Sa.params) ~edge ~w packet =
    let icv_len = Sa.icv_length sa.algo.integ in
    let n = String.length packet in
    if n < esn_header_length + icv_len then Error Esp.Malformed
    else begin
      let seq_low = Int32.to_int (Wire.get_be32 packet 4) land 0xffffffff in
      let seq = Esn.infer ~edge ~w ~seq_low in
      (* The ICV covers the SA's SPI, not the wire's copy: compare it. *)
      if seq < 0 || not (Int32.equal (Wire.get_be32 packet 0) sa.spi) then
        Error Esp.Bad_icv
      else begin
        let ciphertext =
          String.sub packet esn_header_length (n - icv_len - esn_header_length)
        in
        let tag = String.sub packet (n - icv_len) icv_len in
        if not (Ct.equal tag (icv sa (esn_covered sa ~seq ciphertext))) then
          Error Esp.Bad_icv
        else Ok (seq, decrypt sa ~seq ciphertext)
      end
    end
end

(* ------------------------------------------------------------------ *)
(* Fixtures: one SA per algo combination and framing, shared by both
   codecs. The oracle for an SA is the legacy codec of its framing. *)

let sa_of_algo algo = Sa.derive_params ~algo ~spi:0xC0DEl ~secret:"codec-diff" ()

let algos framing =
  List.map
    (fun (name, integ, encr) -> (name, { Sa.integ; encr; framing }))
    [
      ("chacha/icv16", Sa.Hmac_sha256_128, Sa.Chacha20);
      ("chacha/icv32", Sa.Hmac_sha256_full, Sa.Chacha20);
      ("null/icv16", Sa.Hmac_sha256_128, Sa.Null_encr);
    ]

let seq64_algos = algos Sa.Seq64
let esn_algos = algos Sa.Esn32
let all_algos = seq64_algos @ esn_algos

let legacy_encap ~(sa : Sa.params) ~seq ~payload =
  match sa.algo.framing with
  | Sa.Seq64 -> Legacy.encap ~sa ~seq ~payload
  | Sa.Esn32 -> Legacy.esn_encap ~sa ~seq ~payload

let legacy_decap ~(sa : Sa.params) ~edge packet =
  match sa.algo.framing with
  | Sa.Seq64 -> Legacy.decap ~sa packet
  | Sa.Esn32 -> Legacy.esn_decap ~sa ~edge ~w:sa.window_width packet

(* The one decoder over [len] bytes at [off] in [frame], payload
   copied out for comparison. *)
let decap_at ~sa ~edge ?(off = 0) ?len frame =
  let len = Option.value len ~default:(String.length frame - off) in
  Result.map
    (fun (seq, p) -> (seq, Slice.to_string p))
    (Esp.decap_range ~sa ~edge frame ~off ~len)

let same_error = function
  | Error Esp.Malformed, Error Esp.Malformed -> true
  | Error Esp.Bad_icv, Error Esp.Bad_icv -> true
  | Ok _, Ok _ -> true
  | _ -> false

let payload_gen = QCheck.(string_of_size Gen.(0 -- 300))

(* Sequence numbers near the start, across the first ESN epoch boundary
   and deep in a later epoch. *)
let seq_gen =
  QCheck.map
    (fun (base, n) -> base + n + 1)
    QCheck.(pair (oneofl [ 0; Esn.epoch - 8; 3 * Esn.epoch ]) small_nat)

(* A receiver edge just behind [seq], so ESN inference lands in its
   epoch. *)
let edge_of seq = max 0 (seq - 3)

let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Wire byte-equality: the one encoder = legacy encap, both framings *)

let encap_bytes_equal =
  QCheck.Test.make ~name:"Esp.encap = legacy encap (byte-identical)" ~count:150
    QCheck.(pair payload_gen seq_gen)
    (fun (payload, seq) ->
      List.for_all
        (fun (_, algo) ->
          let sa = sa_of_algo algo in
          Esp.encap ~sa ~seq ~payload = legacy_encap ~sa ~seq ~payload)
        all_algos)

let encap_into_offset_equal =
  QCheck.Test.make ~name:"Esp.encap_into at an offset = legacy encap"
    ~count:150
    QCheck.(triple payload_gen seq_gen (int_range 1 200))
    (fun (payload, seq, off) ->
      List.for_all
        (fun (_, algo) ->
          let sa = sa_of_algo algo in
          let wire = legacy_encap ~sa ~seq ~payload in
          let len = String.length wire in
          let slot = Bytes.make (off + len + 64) '\xa5' in
          Esp.encap_into ~sa ~seq ~payload slot ~off = len
          && Bytes.sub_string slot off len = wire
          && Bytes.sub_string slot 0 off = String.make off '\xa5'
          && Bytes.sub_string slot (off + len) 64 = String.make 64 '\xa5')
        all_algos)

(* ------------------------------------------------------------------ *)
(* Cross-decode: each codec decodes the other's wire *)

let cross_decode_seq64 =
  QCheck.Test.make ~name:"cross-decode Seq64: old wire -> new decap and back"
    ~count:150
    QCheck.(pair payload_gen seq_gen)
    (fun (payload, seq) ->
      List.for_all
        (fun (_, algo) ->
          let sa = sa_of_algo algo in
          let old_wire = Legacy.encap ~sa ~seq ~payload in
          let new_wire = Esp.encap ~sa ~seq ~payload in
          Esp.decap ~sa old_wire = Ok (seq, payload)
          && Legacy.decap ~sa new_wire = Ok (seq, payload)
          && decap_at ~sa ~edge:0 old_wire = Ok (seq, payload)
          && (match Esp.decap_slice ~sa old_wire with
             | Ok (s, slice) -> s = seq && Slice.equal_string slice payload
             | Error _ -> false))
        seq64_algos)

let cross_decode_esn =
  QCheck.Test.make ~name:"cross-decode Esn32: old wire -> new decap and back"
    ~count:150
    QCheck.(pair payload_gen seq_gen)
    (fun (payload, seq) ->
      let edge = edge_of seq and w = 64 in
      List.for_all
        (fun (_, algo) ->
          let sa = sa_of_algo algo in
          let old_wire = Legacy.esn_encap ~sa ~seq ~payload in
          let new_wire = Esp.encap ~sa ~seq ~payload in
          decap_at ~sa ~edge old_wire = Ok (seq, payload)
          && Legacy.esn_decap ~sa ~edge ~w new_wire = Ok (seq, payload))
        esn_algos)

(* A frame in an rx-arena slot: at a non-zero offset inside a larger
   buffer, junk on both sides. The one decoder reads it where it lies,
   under either framing. *)
let arena_slot_decodes =
  QCheck.Test.make ~name:"arena slot: frame at an offset decodes in place"
    ~count:150
    QCheck.(triple payload_gen seq_gen (int_range 1 200))
    (fun (payload, seq, off) ->
      List.for_all
        (fun (_, algo) ->
          let sa = sa_of_algo algo in
          let wire = legacy_encap ~sa ~seq ~payload in
          let len = String.length wire in
          let arena = Bytes.make (off + len + 64) '\x5a' in
          Bytes.blit_string wire 0 arena off len;
          let frame = Slice.make arena ~off ~len in
          decap_at ~sa ~edge:(edge_of seq) ~off ~len (Bytes.unsafe_to_string arena)
          = Ok (seq, payload)
          &&
          match sa.algo.framing with
          | Sa.Seq64 ->
            (match Esp.decap_of_slice ~sa frame with
            | Ok (s, p) -> s = seq && Slice.equal_string p payload
            | Error _ -> false)
          | Sa.Esn32 -> true)
        all_algos)

(* ------------------------------------------------------------------ *)
(* Truncation: both codecs classify every prefix identically *)

let truncation_agrees =
  QCheck.Test.make ~name:"truncated packets: identical verdicts" ~count:100
    QCheck.(triple payload_gen seq_gen small_nat)
    (fun (payload, seq, cut) ->
      List.for_all
        (fun (_, algo) ->
          let sa = sa_of_algo algo in
          let wire = Esp.encap ~sa ~seq ~payload in
          let cut = cut mod (String.length wire + 1) in
          let truncated = String.sub wire 0 cut in
          same_error
            ( decap_at ~sa ~edge:seq truncated,
              legacy_decap ~sa ~edge:seq truncated ))
        all_algos)

(* ------------------------------------------------------------------ *)
(* Tamper: flip any one bit, both codecs reject (or agree) *)

(* Every bit of the frame is guarded in both framings: flipping any one
   is an error, and the same error from both codecs. *)
let tamper_agrees =
  QCheck.Test.make ~name:"bit-flipped packets: both codecs reject identically"
    ~count:200
    QCheck.(quad payload_gen seq_gen small_nat small_nat)
    (fun (payload, seq, byte_idx, bit) ->
      let edge = edge_of seq in
      List.for_all
        (fun (_, algo) ->
          let sa = sa_of_algo algo in
          let wire = Esp.encap ~sa ~seq ~payload in
          let i = byte_idx mod String.length wire in
          let flipped = Bytes.of_string wire in
          Bytes.set flipped i
            (Char.chr (Char.code wire.[i] lxor (1 lsl (bit mod 8))));
          let flipped = Bytes.to_string flipped in
          let new_r = decap_at ~sa ~edge flipped in
          let old_r = legacy_decap ~sa ~edge flipped in
          Result.is_error new_r && same_error (new_r, old_r))
        all_algos)

(* ------------------------------------------------------------------ *)
(* The kernel: C = OCaml reference = legacy, on every shape *)

let with_accel on f =
  let prev = Accel.in_use () in
  Accel.set_enabled on;
  Fun.protect ~finally:(fun () -> Accel.set_enabled prev) f

let both_paths f = List.map (fun on -> with_accel on f) [ true; false ]

(* Both framings x both ciphers x both ICV lengths. *)
let every_shape =
  List.concat_map
    (fun framing ->
      List.concat_map
        (fun encr ->
          List.map
            (fun integ -> { Sa.integ; encr; framing })
            [ Sa.Hmac_sha256_128; Sa.Hmac_sha256_full ])
        [ Sa.Chacha20; Sa.Null_encr ])
    [ Sa.Seq64; Sa.Esn32 ]

(* Payload lengths whose covered run (12-byte long header plus
   ciphertext) is 55/56 or 119/120 bytes, where SHA-256's padding does
   or does not spill into one more block, or any length up to 300. *)
let kernel_payload_gen =
  QCheck.(
    map
      (fun (n, c) -> String.make n c)
      (pair (oneof [ int_range 0 300; oneofl [ 43; 44; 107; 108 ] ]) char))

(* Random SPIs (the sign bit included), keys from random secrets, and
   sequence numbers from 1 to far past 2^32. *)
let kernel_sa_gen =
  QCheck.(
    triple (map Int32.of_int (int_range (-0x80000000) 0x7fffffff))
      (string_of_size Gen.(1 -- 24))
      (oneof
         [
           int_range 1 1000;
           int_range (Esn.epoch - 8) (Esn.epoch + 8);
           int_range (Esn.epoch + 1) (1 lsl 62 - 1);
         ]))

let kernel_differential =
  QCheck.Test.make
    ~name:"kernel: C = OCaml reference = legacy (wire bytes and verdicts)"
    ~count:150
    QCheck.(triple kernel_sa_gen kernel_payload_gen (pair small_nat (int_range 1 255)))
    (fun ((spi, secret, seq), payload, (at, mask)) ->
      let edge = edge_of seq in
      List.for_all
        (fun algo ->
          let sa = Sa.derive_params ~algo ~spi ~secret () in
          let wire = legacy_encap ~sa ~seq ~payload in
          let tampered = Bytes.of_string wire in
          let i = at mod String.length wire in
          Bytes.set tampered i (Char.chr (Char.code wire.[i] lxor mask));
          let tampered = Bytes.to_string tampered in
          let legacy_verdict = legacy_decap ~sa ~edge tampered in
          List.for_all
            (fun (w, ok, bad) ->
              w = wire
              && ok = Ok (seq, payload)
              && bad = Error Esp.Bad_icv
              && same_error (bad, legacy_verdict))
            (both_paths (fun () ->
                 ( Esp.encap ~sa ~seq ~payload,
                   decap_at ~sa ~edge wire,
                   decap_at ~sa ~edge tampered ))))
        every_shape)

(* Every byte of the frame is covered: flip its low bit, its high bit
   or all of it and it no longer verifies, on either path. A flipped
   SPI byte names another SPI, which an ESN frame's ICV does not cover:
   the decoder's SPI check rejects it. *)
let test_kernel_every_byte () =
  List.iter
    (fun algo ->
      let sa = Sa.derive_params ~algo ~spi:0x9e37l ~secret:"every-byte" () in
      List.iter
        (fun plen ->
          let seq = Esn.epoch + plen + 5 in
          let edge = edge_of seq in
          let wire = Esp.encap ~sa ~seq ~payload:(String.make plen 'b') in
          String.iteri
            (fun i c ->
              List.iter
                (fun mask ->
                  let flipped = Bytes.of_string wire in
                  Bytes.set flipped i (Char.chr (Char.code c lxor mask));
                  let flipped = Bytes.to_string flipped in
                  List.iter
                    (fun verdict ->
                      if verdict <> Error Esp.Bad_icv then
                        Alcotest.failf
                          "%d-byte payload, byte %d xor %#x: not Bad_icv" plen i
                          mask)
                    (both_paths (fun () -> decap_at ~sa ~edge flipped)))
                [ 0x01; 0x80; 0xff ])
            wire)
        [ 0; 1; 43; 44; 107; 108; 300 ])
    every_shape

(* The scratch buffer grows only for a frame that verifies: a forged
   frame longer than it leaves it as it was, on either path. *)
let test_kernel_forged_long_frame () =
  List.iter
    (fun on ->
      with_accel on (fun () ->
          let sa = sa_of_algo Sa.default_algo in
          let cap = Bytes.length sa.Sa.scratch in
          let payload = String.make (4 * cap) 'L' in
          let wire = Esp.encap ~sa ~seq:3 ~payload in
          let forged = Bytes.of_string wire in
          Bytes.set forged (String.length wire - 1)
            (Char.chr (Char.code wire.[String.length wire - 1] lxor 1));
          check_bool "forged: Bad_icv" true
            (decap_at ~sa ~edge:0 (Bytes.to_string forged) = Error Esp.Bad_icv);
          Alcotest.(check int) "scratch not grown" cap (Bytes.length sa.Sa.scratch);
          check_bool "authentic: decodes" true
            (decap_at ~sa ~edge:0 wire = Ok (3, payload));
          check_bool "scratch grown" true (Bytes.length sa.Sa.scratch >= 4 * cap)))
    [ true; false ]

(* A range outside the frame or the destination is refused before the
   kernel runs, on either path. *)
let test_kernel_bounds () =
  List.iter
    (fun algo ->
      let sa = Sa.derive_params ~algo ~spi:0x77l ~secret:"bounds" () in
      let payload = "bounded" in
      let total = Esp.overhead ~sa + String.length payload in
      let wire = Esp.encap ~sa ~seq:9 ~payload in
      let n = String.length wire in
      List.iter
        (fun on ->
          with_accel on (fun () ->
              let encap_raises name dst ~off =
                Alcotest.check_raises name
                  (Invalid_argument "Esp.encap_into: out of bounds") (fun () ->
                    ignore (Esp.encap_into ~sa ~seq:9 ~payload dst ~off : int))
              in
              encap_raises "negative off" (Bytes.create (total + 8)) ~off:(-1);
              encap_raises "past the end" (Bytes.create (total + 8)) ~off:9;
              encap_raises "short destination" (Bytes.create (total - 1)) ~off:0;
              let decap_raises name ~off ~len =
                Alcotest.check_raises name
                  (Invalid_argument "Esp.decap_range: out of bounds") (fun () ->
                    ignore (Esp.decap_range ~sa ~edge:9 wire ~off ~len))
              in
              decap_raises "negative off" ~off:(-1) ~len:n;
              decap_raises "negative len" ~off:0 ~len:(-1);
              decap_raises "len past the end" ~off:0 ~len:(n + 1);
              decap_raises "off past the end" ~off:(n + 1) ~len:0;
              decap_raises "window past the end" ~off:1 ~len:n;
              check_bool "the whole frame still decodes" true
                (decap_at ~sa ~edge:9 wire = Ok (9, payload))))
        [ true; false ])
    every_shape

(* ------------------------------------------------------------------ *)
(* Deterministic spot checks *)

let test_known_wire_stability () =
  (* A pinned wire byte sequence: catches accidental format drift that
     a purely differential test (comparing two same-session codecs)
     would miss. *)
  let sa = sa_of_algo Sa.default_algo in
  let wire = Esp.encap ~sa ~seq:7 ~payload:"attack at dawn" in
  check_str "spi+seq header" "000000c0de0000000000000007"
    ("00" ^ Hex.encode (String.sub wire 0 12));
  Alcotest.(check int)
    "wire length" (12 + 14 + 16) (String.length wire);
  (* decap returns the payload *)
  check_bool "roundtrip" true (Esp.decap ~sa wire = Ok (7, "attack at dawn"));
  (* ESN: the low 32 bits of seq = 2^32 + 7 only, 4 bytes shorter *)
  let sa = sa_of_algo { Sa.default_algo with framing = Sa.Esn32 } in
  let seq = Esn.epoch + 7 in
  let wire = Esp.encap ~sa ~seq ~payload:"attack at dawn" in
  check_str "spi+seq_low header" "000000c0de00000007"
    ("00" ^ Hex.encode (String.sub wire 0 8));
  Alcotest.(check int) "esn wire length" (8 + 14 + 16) (String.length wire);
  check_bool "esn roundtrip" true
    (decap_at ~sa ~edge:(seq - 1) wire = Ok (seq, "attack at dawn"));
  (* The ESN ICV covers the SA's SPI, so the wire's is compared. *)
  let other_spi = Bytes.of_string wire in
  Bytes.set other_spi 3 '\xdf';
  check_bool "esn frame under another spi" true
    (decap_at ~sa ~edge:(seq - 1) (Bytes.to_string other_spi)
    = Error Esp.Bad_icv)

let test_slice_scratch_reuse () =
  (* Two successive decaps on one SA reuse the scratch buffer: the
     first slice's contents are overwritten by the second decap —
     documented lifetime, and the reason consumers copy if they keep. *)
  let sa = sa_of_algo Sa.default_algo in
  let w1 = Esp.encap ~sa ~seq:1 ~payload:"first-payload!" in
  let w2 = Esp.encap ~sa ~seq:2 ~payload:"SECOND-PAYLOAD" in
  match (Esp.decap_slice ~sa w1, ()) with
  | Ok (_, s1), () ->
    let copied = Slice.to_string s1 in
    (match Esp.decap_slice ~sa w2 with
    | Ok (_, s2) ->
      check_str "copy taken before reuse survives" "first-payload!" copied;
      check_bool "slices share the scratch buffer" true
        (Slice.equal_string s1 "SECOND-PAYLOAD"
        && Slice.equal_string s2 "SECOND-PAYLOAD")
    | Error _ -> Alcotest.fail "second decap failed")
  | Error _, () -> Alcotest.fail "first decap failed"

let () =
  Alcotest.run "codec"
    [
      ("wire-equality", [ qt encap_bytes_equal; qt encap_into_offset_equal ]);
      ( "cross-decode",
        [ qt cross_decode_seq64; qt cross_decode_esn; qt arena_slot_decodes ] );
      ("rejection", [ qt truncation_agrees; qt tamper_agrees ]);
      ( "kernel",
        [
          qt kernel_differential;
          Alcotest.test_case "every byte flipped, both paths" `Quick
            test_kernel_every_byte;
          Alcotest.test_case "ranges outside frame or destination" `Quick
            test_kernel_bounds;
          Alcotest.test_case "forged long frame leaves the scratch" `Quick
            test_kernel_forged_long_frame;
        ] );
      ( "stability",
        [
          Alcotest.test_case "pinned wire bytes" `Quick test_known_wire_stability;
          Alcotest.test_case "scratch reuse lifetime" `Quick test_slice_scratch_reuse;
        ] );
    ]
