(* Extended sequence numbers (RFC 4304-style inference) and the
   multi-SA recovery harness. *)

open Resets_ipsec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let epoch = Esn.epoch

(* ------------------------------------------------------------------ *)
(* infer: the two RFC cases *)

let test_low_high_split () =
  let full = (3 * epoch) + 17 in
  check_int "low" 17 (Esn.low_of full);
  check_int "high" 3 (Esn.high_of full)

let test_case_a_in_window () =
  (* edge mid-epoch: same-epoch lows map to the current epoch *)
  let edge = epoch + 1000 in
  check_int "at edge" edge (Esn.infer ~edge ~w:64 ~seq_low:1000);
  check_int "in window" (epoch + 990) (Esn.infer ~edge ~w:64 ~seq_low:990);
  check_int "left edge" (epoch + 937) (Esn.infer ~edge ~w:64 ~seq_low:937)

let test_case_a_future_same_epoch () =
  let edge = epoch + 1000 in
  check_int "just ahead" (epoch + 1001) (Esn.infer ~edge ~w:64 ~seq_low:1001);
  check_int "far ahead"
    (epoch + (epoch - 1))
    (Esn.infer ~edge ~w:64 ~seq_low:(epoch - 1))

let test_case_a_below_window_is_next_epoch () =
  (* a low value below the left edge is interpreted as the next epoch
     (the sender wrapped) *)
  let edge = epoch + 1000 in
  check_int "below window wraps forward" ((2 * epoch) + 100)
    (Esn.infer ~edge ~w:64 ~seq_low:100)

let test_case_b_straddling_boundary () =
  (* edge just after a wrap: the window reaches back into the previous
     epoch *)
  let edge = (2 * epoch) + 10 in
  (* low values near 2^32 belong to the previous epoch *)
  check_int "tail of previous epoch"
    (epoch + (epoch - 5))
    (Esn.infer ~edge ~w:64 ~seq_low:(epoch - 5));
  (* small lows are the current epoch *)
  check_int "current epoch" ((2 * epoch) + 3) (Esn.infer ~edge ~w:64 ~seq_low:3);
  check_int "ahead in current epoch" ((2 * epoch) + 500)
    (Esn.infer ~edge ~w:64 ~seq_low:500)

let test_case_b_at_epoch_zero () =
  (* at the very start there is no previous epoch; high lows map below
     zero and classify as stale *)
  let inferred = Esn.infer ~edge:0 ~w:64 ~seq_low:(epoch - 1) in
  check_bool "negative (pre-history)" true (inferred < 0)

let test_case_boundary_exact () =
  (* the exact boundary between cases A and B: tl = w - 1 is case A *)
  let w = 64 in
  let edge = (2 * epoch) + (w - 1) in
  (* lowest in-window low value is 0 *)
  check_int "left edge at low 0" (2 * epoch) (Esn.infer ~edge ~w ~seq_low:0);
  (* a high low value here stays in the current epoch per case A *)
  check_int "high low is same-epoch future"
    ((3 * epoch) - 1)
    (Esn.infer ~edge ~w ~seq_low:(epoch - 1))

let test_infer_validation () =
  Alcotest.check_raises "low out of range"
    (Invalid_argument "Esn.infer: seq_low out of range") (fun () ->
      ignore (Esn.infer ~edge:0 ~w:64 ~seq_low:epoch));
  Alcotest.check_raises "w" (Invalid_argument "Esn.infer: w must be positive")
    (fun () -> ignore (Esn.infer ~edge:0 ~w:0 ~seq_low:0))

let infer_roundtrip_property =
  (* any full number within (edge - w, edge + big) is recovered exactly
     from its low 32 bits *)
  QCheck.Test.make ~name:"infer recovers in-window and near-future numbers" ~count:500
    QCheck.(
      triple (int_range 64 2000) (int_range 1 64)
        (int_range (-60) 1000))
    (fun (edge_low, w, delta) ->
      (* place the edge near an epoch boundary to stress both cases *)
      let edge = (3 * epoch) - 1000 + edge_low in
      let full = edge + delta in
      delta <= -w (* outside the invertible range: skip *)
      || Esn.infer ~edge ~w ~seq_low:(Esn.low_of full) = full)

(* ------------------------------------------------------------------ *)
(* ESN receiving window: infer the full number from the wire's low
   half and the window's edge, then admit it *)

let admit_low t seq_low =
  let full =
    Esn.infer ~edge:(Replay_window.right_edge t) ~w:(Replay_window.w t) ~seq_low
  in
  (Replay_window.admit t full, full)

let test_esn_window_in_order () =
  let t = Replay_window.create_private ~w:8 in
  let v1, full1 = admit_low t 1 in
  check_bool "accept 1" true (Replay_window.verdict_accepts v1);
  check_int "full 1" 1 full1;
  let v2, _ = admit_low t 1 in
  check_bool "replay rejected" false (Replay_window.verdict_accepts v2)

let test_esn_window_across_wrap () =
  let t = Replay_window.create_private ~w:8 in
  (* jump the edge near the top of epoch 0 via resume *)
  Replay_window.resume_at t (epoch - 2);
  let v, full = admit_low t (epoch - 1) in
  check_bool "accept top of epoch" true (Replay_window.verdict_accepts v);
  check_int "full top" (epoch - 1) full;
  (* the next wire value 0 is the start of epoch 1 *)
  let v, full = admit_low t 0 in
  check_bool "accept across wrap" true (Replay_window.verdict_accepts v);
  check_int "full wrapped" epoch full;
  (* replaying the top of epoch 0 now fails *)
  let v, _ = admit_low t (epoch - 1) in
  check_bool "old epoch replay rejected" false (Replay_window.verdict_accepts v)

let test_esn_leap_across_epoch () =
  (* SAVE/FETCH interaction: a wakeup leap lands the edge in the next
     epoch; inference must keep working *)
  let t = Replay_window.create_private ~w:8 in
  Replay_window.resume_at t (epoch + 5) (* recovered edge in epoch 1 *);
  check_int "edge" (epoch + 5) (Replay_window.right_edge t);
  let v, full = admit_low t 6 in
  check_bool "fresh accepted" true (Replay_window.verdict_accepts v);
  check_int "fresh is epoch 1" (epoch + 6) full;
  let v, _ = admit_low t 5 in
  check_bool "edge replay rejected" false (Replay_window.verdict_accepts v)

let test_esn_volatile_reset () =
  let t = Replay_window.create_private ~w:8 in
  Replay_window.resume_at t (epoch + 5);
  Replay_window.volatile_reset t;
  check_int "edge forgotten" 0 (Replay_window.right_edge t)

(* ------------------------------------------------------------------ *)
(* ESN ESP framing: ICV over the inferred full sequence number *)

let esn_sa =
  Sa.derive_params
    ~algo:{ Sa.default_algo with framing = Sa.Esn32 }
    ~spi:0x77l ~secret:"esn-test" ()

(* The one decoder over a whole wire string, payload copied out; the
   window width (64) is the SA's. *)
let decap_at ~edge wire =
  Result.map
    (fun (seq, p) -> (seq, Resets_util.Slice.to_string p))
    (Esp.decap_range ~sa:esn_sa ~edge wire ~off:0 ~len:(String.length wire))

let test_esn_esp_roundtrip_epoch0 () =
  let wire = Esp.encap ~sa:esn_sa ~seq:42 ~payload:"hello" in
  match decap_at ~edge:40 wire with
  | Ok (seq, payload) ->
    check_int "seq" 42 seq;
    Alcotest.(check string) "payload" "hello" payload
  | Error e -> Alcotest.failf "decap failed: %s" (Esp.error_to_string e)

let test_esn_esp_roundtrip_high_epoch () =
  let seq = (3 * epoch) + 5 in
  let wire = Esp.encap ~sa:esn_sa ~seq ~payload:"deep" in
  (* receiver's edge is nearby: inference recovers the full number *)
  match decap_at ~edge:(seq - 3) wire with
  | Ok (seq', _) -> check_int "full seq recovered" seq seq'
  | Error e -> Alcotest.failf "decap failed: %s" (Esp.error_to_string e)

let test_esn_esp_wrong_epoch_fails_icv () =
  (* a packet from epoch 3 presented to a receiver whose window sits in
     epoch 1: the inferred number is wrong, so the ICV must fail — the
     RFC-specified behaviour *)
  let seq = (3 * epoch) + 5 in
  let wire = Esp.encap ~sa:esn_sa ~seq ~payload:"deep" in
  check_bool "rejected across epochs" true
    (Result.is_error (decap_at ~edge:(epoch + 1000) wire))

let test_esn_esp_across_wrap () =
  (* traffic spanning an epoch boundary all verifies when the edge
     tracks it *)
  let edge = ref (epoch - 3) in
  for seq = epoch - 2 to epoch + 2 do
    let wire = Esp.encap ~sa:esn_sa ~seq ~payload:"x" in
    (match decap_at ~edge:!edge wire with
    | Ok (seq', _) -> check_int (Printf.sprintf "seq %d" seq) seq seq'
    | Error e -> Alcotest.failf "decap %d failed: %s" seq (Esp.error_to_string e));
    edge := seq
  done

let test_esn_esp_tamper () =
  let wire = Esp.encap ~sa:esn_sa ~seq:7 ~payload:"data" in
  let tampered =
    String.mapi (fun i c -> if i = String.length wire - 1 then Char.chr (Char.code c lxor 1) else c) wire
  in
  check_bool "tamper rejected" true (decap_at ~edge:6 tampered = Error Esp.Bad_icv)

let test_esn_esp_malformed () =
  check_bool "short" true (decap_at ~edge:0 "tiny" = Error Esp.Malformed)

(* ------------------------------------------------------------------ *)
(* Multi-SA recovery *)

open Resets_core
open Resets_sim

let small_cfg n =
  { Multi_sa.default_config with Multi_sa.sa_count = n; horizon = Time.of_ms 60 }

let test_multi_sa_all_disciplines_safe () =
  List.iter
    (fun d ->
      let o = Multi_sa.run d (small_cfg 8) in
      check_int "no duplicates" 0 o.Multi_sa.duplicate_deliveries;
      check_bool "delivered plenty" true (o.Multi_sa.delivered > 1000))
    [ `Save_fetch_per_sa; `Save_fetch_coalesced; `Reestablish ]

let test_multi_sa_per_sa_recovery_scales_linearly () =
  let rt n =
    Time.to_us (Multi_sa.run `Save_fetch_per_sa (small_cfg n)).Multi_sa.ready_time
  in
  let r1 = rt 1 and r32 = rt 32 in
  (* 31 extra serialized 100us blocking saves: about 3.1 ms difference *)
  check_bool "grows with SA count" true (r32 -. r1 > 2000.);
  check_bool "but stays linear-ish" true (r32 -. r1 < 6000.)

let test_multi_sa_coalesced_recovery_flat () =
  let rt n =
    Time.to_us (Multi_sa.run `Save_fetch_coalesced (small_cfg n)).Multi_sa.ready_time
  in
  let r1 = rt 1 and r32 = rt 32 in
  check_bool "flat across SA count" true (Float.abs (r32 -. r1) < 500.)

let test_multi_sa_coalesced_fewer_writes () =
  let writes d = (Multi_sa.run d (small_cfg 32)).Multi_sa.disk_writes in
  let per_sa = writes `Save_fetch_per_sa and coalesced = writes `Save_fetch_coalesced in
  check_bool "order of magnitude fewer writes" true (coalesced * 5 < per_sa)

let test_multi_sa_reestablish_expensive () =
  let o_re = Multi_sa.run `Reestablish (small_cfg 4) in
  let o_sf = Multi_sa.run `Save_fetch_per_sa (small_cfg 4) in
  check_bool "handshakes on the wire" true (o_re.Multi_sa.handshake_messages >= 4);
  check_bool "far slower than save/fetch" true
    (Time.to_us o_re.Multi_sa.ready_time > 5. *. Time.to_us o_sf.Multi_sa.ready_time);
  check_bool "far more messages lost" true
    (o_re.Multi_sa.messages_lost > 5 * o_sf.Multi_sa.messages_lost)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "esn+multisa"
    [
      ( "esn infer",
        [
          Alcotest.test_case "low/high split" `Quick test_low_high_split;
          Alcotest.test_case "case A in window" `Quick test_case_a_in_window;
          Alcotest.test_case "case A future" `Quick test_case_a_future_same_epoch;
          Alcotest.test_case "case A next epoch" `Quick
            test_case_a_below_window_is_next_epoch;
          Alcotest.test_case "case B straddle" `Quick test_case_b_straddling_boundary;
          Alcotest.test_case "case B epoch zero" `Quick test_case_b_at_epoch_zero;
          Alcotest.test_case "case A/B boundary" `Quick test_case_boundary_exact;
          Alcotest.test_case "validation" `Quick test_infer_validation;
          qt infer_roundtrip_property;
        ] );
      ( "esn window",
        [
          Alcotest.test_case "in order" `Quick test_esn_window_in_order;
          Alcotest.test_case "across wrap" `Quick test_esn_window_across_wrap;
          Alcotest.test_case "leap across epoch" `Quick test_esn_leap_across_epoch;
          Alcotest.test_case "volatile reset" `Quick test_esn_volatile_reset;
        ] );
      ( "esn esp framing",
        [
          Alcotest.test_case "roundtrip epoch 0" `Quick test_esn_esp_roundtrip_epoch0;
          Alcotest.test_case "roundtrip high epoch" `Quick
            test_esn_esp_roundtrip_high_epoch;
          Alcotest.test_case "wrong epoch fails ICV" `Quick
            test_esn_esp_wrong_epoch_fails_icv;
          Alcotest.test_case "across wrap" `Quick test_esn_esp_across_wrap;
          Alcotest.test_case "tamper" `Quick test_esn_esp_tamper;
          Alcotest.test_case "malformed" `Quick test_esn_esp_malformed;
        ] );
      ( "multi-sa",
        [
          Alcotest.test_case "all disciplines safe" `Quick
            test_multi_sa_all_disciplines_safe;
          Alcotest.test_case "per-sa scales linearly" `Quick
            test_multi_sa_per_sa_recovery_scales_linearly;
          Alcotest.test_case "coalesced flat" `Quick test_multi_sa_coalesced_recovery_flat;
          Alcotest.test_case "coalesced fewer writes" `Quick
            test_multi_sa_coalesced_fewer_writes;
          Alcotest.test_case "reestablish expensive" `Quick
            test_multi_sa_reestablish_expensive;
        ] );
    ]
