(* Differential suite: the zero-copy slice codec against a test-local
   reimplementation of the legacy string codec (the pre-refactor Esp,
   rebuilt here from the public one-shot crypto APIs). The two must be
   observationally equivalent — byte-identical wires, agreeing decodes
   in both directions, agreeing rejections on truncation and tamper —
   or the refactor changed the protocol, not just the representation. *)

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
        let seq = Int64.to_int (Wire.get_be64 packet 4) in
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

  let encap_esn ~(sa : Sa.params) ~seq ~payload =
    let ciphertext = encrypt sa ~seq payload in
    let tag = icv sa (esn_covered sa ~seq ciphertext) in
    let buf = Buffer.create (esn_header_length + String.length ciphertext + 32) in
    Wire.put_be32 buf sa.spi;
    Wire.put_be32 buf (Int32.of_int (seq land 0xffffffff));
    Buffer.add_string buf ciphertext;
    Buffer.add_string buf tag;
    Buffer.contents buf

  let decap_esn ~(sa : Sa.params) ~edge ~w packet =
    let icv_len = Sa.icv_length sa.algo.integ in
    let n = String.length packet in
    if n < esn_header_length + icv_len then Error Esp.Malformed
    else begin
      let seq_low = Int32.to_int (Wire.get_be32 packet 4) land 0xffffffff in
      let seq = Esn.infer ~edge ~w ~seq_low in
      if seq < 0 then Error Esp.Bad_icv
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
(* Fixtures: one SA per algo combination, shared by both codecs. *)

let sa_of_algo algo = Sa.derive_params ~algo ~spi:0xC0DEl ~secret:"codec-diff" ()

let all_algos =
  [
    ("chacha/icv16", { Sa.integ = Sa.Hmac_sha256_128; encr = Sa.Chacha20 });
    ("chacha/icv32", { Sa.integ = Sa.Hmac_sha256_full; encr = Sa.Chacha20 });
    ("null/icv16", { Sa.integ = Sa.Hmac_sha256_128; encr = Sa.Null_encr });
  ]

let same_error = function
  | Error Esp.Malformed, Error Esp.Malformed -> true
  | Error Esp.Bad_icv, Error Esp.Bad_icv -> true
  | Ok _, Ok _ -> true
  | _ -> false

let payload_gen = QCheck.(string_of_size Gen.(0 -- 300))

let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Wire byte-equality: new encap = legacy encap, all framings *)

let encap_bytes_equal =
  QCheck.Test.make ~name:"Esp.encap = legacy encap (byte-identical)" ~count:150
    QCheck.(pair payload_gen small_nat)
    (fun (payload, seq) ->
      let seq = seq + 1 in
      List.for_all
        (fun (_, algo) ->
          let sa = sa_of_algo algo in
          Esp.encap ~sa ~seq ~payload = Legacy.encap ~sa ~seq ~payload)
        all_algos)

let encap_esn_bytes_equal =
  QCheck.Test.make ~name:"Esp.encap_esn = legacy encap_esn (byte-identical)"
    ~count:150
    QCheck.(pair payload_gen small_nat)
    (fun (payload, seq) ->
      let seq = seq + 1 in
      List.for_all
        (fun (_, algo) ->
          let sa = sa_of_algo algo in
          Esp.encap_esn ~sa ~seq ~payload = Legacy.encap_esn ~sa ~seq ~payload)
        all_algos)

(* ------------------------------------------------------------------ *)
(* Cross-decode: each codec decodes the other's wire *)

let cross_decode_seq64 =
  QCheck.Test.make ~name:"cross-decode Seq64: old wire -> new decap and back"
    ~count:150
    QCheck.(pair payload_gen small_nat)
    (fun (payload, seq) ->
      let seq = seq + 1 in
      List.for_all
        (fun (_, algo) ->
          let sa = sa_of_algo algo in
          let old_wire = Legacy.encap ~sa ~seq ~payload in
          let new_wire = Esp.encap ~sa ~seq ~payload in
          Esp.decap ~sa old_wire = Ok (seq, payload)
          && Legacy.decap ~sa new_wire = Ok (seq, payload)
          && (match Esp.decap_slice ~sa old_wire with
             | Ok (s, slice) -> s = seq && Slice.equal_string slice payload
             | Error _ -> false))
        all_algos)

let cross_decode_esn =
  QCheck.Test.make ~name:"cross-decode Esn32: old wire -> new decap and back"
    ~count:150
    QCheck.(pair payload_gen small_nat)
    (fun (payload, seq) ->
      let seq = seq + 1 in
      let edge = max 0 (seq - 3) and w = 64 in
      List.for_all
        (fun (_, algo) ->
          let sa = sa_of_algo algo in
          let old_wire = Legacy.encap_esn ~sa ~seq ~payload in
          let new_wire = Esp.encap_esn ~sa ~seq ~payload in
          Esp.decap_esn ~sa ~edge ~w old_wire = Ok (seq, payload)
          && Legacy.decap_esn ~sa ~edge ~w new_wire = Ok (seq, payload)
          && (match Esp.decap_esn_slice ~sa ~edge ~w old_wire with
             | Ok (s, slice) -> s = seq && Slice.equal_string slice payload
             | Error _ -> false))
        all_algos)

(* ------------------------------------------------------------------ *)
(* Truncation: both codecs classify every prefix identically *)

let truncation_agrees =
  QCheck.Test.make ~name:"truncated packets: identical verdicts" ~count:100
    QCheck.(triple payload_gen small_nat small_nat)
    (fun (payload, seq, cut) ->
      let seq = seq + 1 in
      List.for_all
        (fun (_, algo) ->
          let sa = sa_of_algo algo in
          let wire = Esp.encap ~sa ~seq ~payload in
          let cut = cut mod (String.length wire + 1) in
          let truncated = String.sub wire 0 cut in
          same_error (Esp.decap ~sa truncated, Legacy.decap ~sa truncated)
          &&
          let wire_esn = Esp.encap_esn ~sa ~seq ~payload in
          let cut_esn = cut mod (String.length wire_esn + 1) in
          let truncated_esn = String.sub wire_esn 0 cut_esn in
          same_error
            ( Esp.decap_esn ~sa ~edge:seq ~w:64 truncated_esn,
              Legacy.decap_esn ~sa ~edge:seq ~w:64 truncated_esn ))
        all_algos)

(* ------------------------------------------------------------------ *)
(* Tamper: flip any one bit, both codecs reject (or agree) *)

let tamper_agrees =
  QCheck.Test.make ~name:"bit-flipped packets: both codecs reject identically"
    ~count:200
    QCheck.(quad payload_gen small_nat small_nat small_nat)
    (fun (payload, seq, byte_idx, bit) ->
      let seq = seq + 1 in
      List.for_all
        (fun (_, algo) ->
          let sa = sa_of_algo algo in
          let wire = Esp.encap ~sa ~seq ~payload in
          let i = byte_idx mod String.length wire in
          let flipped = Bytes.of_string wire in
          Bytes.set flipped i
            (Char.chr (Char.code wire.[i] lxor (1 lsl (bit mod 8))));
          let flipped = Bytes.to_string flipped in
          let new_r = Esp.decap ~sa flipped in
          let old_r = Legacy.decap ~sa flipped in
          same_error (new_r, old_r)
          && (match (new_r, old_r) with
             | Ok a, Ok b -> a = b (* flip in an ignored... never: all bytes covered *)
             | _ -> true)
          && new_r <> Ok (seq, payload))
        all_algos)

(* ------------------------------------------------------------------ *)
(* Deterministic spot checks *)

let test_known_wire_stability () =
  (* A pinned wire byte sequence: catches accidental format drift that
     a purely differential test (comparing two same-session codecs)
     would miss. *)
  let sa = sa_of_algo { Sa.integ = Sa.Hmac_sha256_128; encr = Sa.Chacha20 } in
  let wire = Esp.encap ~sa ~seq:7 ~payload:"attack at dawn" in
  check_str "spi+seq header" "000000c0de0000000000000007"
    ("00" ^ Hex.encode (String.sub wire 0 12));
  Alcotest.(check int)
    "wire length" (12 + 14 + 16) (String.length wire);
  (* decap returns the payload *)
  check_bool "roundtrip" true (Esp.decap ~sa wire = Ok (7, "attack at dawn"))

let test_slice_scratch_reuse () =
  (* Two successive decaps on one SA reuse the scratch buffer: the
     first slice's contents are overwritten by the second decap —
     documented lifetime, and the reason consumers copy if they keep. *)
  let sa = sa_of_algo { Sa.integ = Sa.Hmac_sha256_128; encr = Sa.Chacha20 } in
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
      ("wire-equality", [ qt encap_bytes_equal; qt encap_esn_bytes_equal ]);
      ( "cross-decode",
        [ qt cross_decode_seq64; qt cross_decode_esn ] );
      ("rejection", [ qt truncation_agrees; qt tamper_agrees ]);
      ( "stability",
        [
          Alcotest.test_case "pinned wire bytes" `Quick test_known_wire_stability;
          Alcotest.test_case "scratch reuse lifetime" `Quick test_slice_scratch_reuse;
        ] );
    ]
