(* Integration tests through the full harness: each of the paper's
   claims exercised end-to-end (crypto, link, adversary, disks). *)

open Resets_sim
open Resets_core
open Resets_workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ms = Time.of_ms

(* Gap 8 us with the paper's 100 us SAVE latency gives k_min = 13; 25
   respects Section 4's rule with margin. *)
let base =
  {
    Harness.default with
    horizon = ms 20;
    message_gap = Time.of_us 8;
    protocol = Protocol.save_fetch ~kp:25 ~kq:25 ();
  }

(* ------------------------------------------------------------------ *)
(* Clean runs *)

let test_clean_run_delivers_everything () =
  let r = Harness.run base in
  let m = r.Harness.metrics in
  check_bool "sent many" true (m.Metrics.sent > 2000);
  (* allow the few packets still in flight at the horizon *)
  check_bool "delivered ~sent" true (m.Metrics.sent - m.Metrics.delivered <= 3);
  check_int "no duplicates" 0 m.Metrics.duplicate_deliveries;
  check_int "no discards" 0 m.Metrics.fresh_rejected;
  check_bool "saves ran on both ends" true
    (r.Harness.saves_completed_p > 0 && r.Harness.saves_completed_q > 0)

let test_clean_run_verdict_holds () =
  let r = Harness.run base in
  check_bool "verdict" true (Convergence.holds (Convergence.check ~scenario:base r))

let test_determinism_same_seed () =
  let r1 = Harness.run base and r2 = Harness.run base in
  check_int "same sent" r1.Harness.metrics.Metrics.sent r2.Harness.metrics.Metrics.sent;
  check_int "same delivered" r1.Harness.metrics.Metrics.delivered
    r2.Harness.metrics.Metrics.delivered;
  check_int "same edge" r1.Harness.receiver_edge r2.Harness.receiver_edge

let test_different_seed_with_jitter_differs () =
  let jittery seed =
    {
      base with
      seed;
      traffic = Harness.Poisson;
      link_jitter = Time.of_us 4;
    }
  in
  let r1 = Harness.run (jittery 1) and r2 = Harness.run (jittery 2) in
  check_bool "different dynamics" true
    (r1.Harness.metrics.Metrics.sent <> r2.Harness.metrics.Metrics.sent
    || r1.Harness.receiver_edge <> r2.Harness.receiver_edge)

let test_esn_framing_agrees_with_seq64 () =
  (* The ESN wire format (32-bit low + ICV over the inferred 64-bit
     number) delivers exactly the same fresh traffic and admits zero
     replays. One observable difference is genuine RFC 4304 behaviour:
     a replayed number far below the window infers into the wrong
     epoch and dies at the ICV check instead of the window check. *)
  let scenario =
    {
      base with
      horizon = ms 30;
      resets = Reset_schedule.single ~at:(ms 10) ~downtime:(ms 1) Receiver;
      attack = Harness.Flood { start = ms 11; gap = Time.of_us 20 };
    }
  in
  let a = Harness.run scenario in
  let b = Harness.run { scenario with framing = Resets_ipsec.Sa.Esn32 } in
  check_int "same deliveries" a.Harness.metrics.Metrics.delivered
    b.Harness.metrics.Metrics.delivered;
  check_int "no replays either way" 0
    (a.Harness.metrics.Metrics.replay_accepted
    + b.Harness.metrics.Metrics.replay_accepted);
  check_int "replays die at ICV or window, never delivered"
    (a.Harness.metrics.Metrics.replay_rejected + a.Harness.metrics.Metrics.bad_icv)
    (b.Harness.metrics.Metrics.replay_rejected + b.Harness.metrics.Metrics.bad_icv)

let test_displacement_metric_tracks_reorder () =
  let scenario =
    {
      base with
      faults =
        { Link.no_faults with reorder_prob = 0.2; reorder_delay = Time.of_us 80 };
    }
  in
  let r = Harness.run scenario in
  (* 80 us of extra delay at 8 us per message displaces by ~10 slots *)
  check_bool "displacement observed" true
    (r.Harness.metrics.Metrics.max_displacement >= 8
    && r.Harness.metrics.Metrics.max_displacement <= 12)

let test_lossy_link_no_false_positives () =
  let scenario =
    {
      base with
      faults = { Link.no_faults with loss_prob = 0.05; dup_prob = 0.02 };
      link_jitter = Time.of_us 2;
    }
  in
  let r = Harness.run scenario in
  let m = r.Harness.metrics in
  check_int "duplicated packets never delivered twice" 0 m.Metrics.duplicate_deliveries;
  check_bool "loss visible" true (r.Harness.link_dropped > 0);
  check_int "no replays (none injected)" 0 m.Metrics.replay_accepted

(* ------------------------------------------------------------------ *)
(* E1: sender reset *)

let test_sender_reset_loss_bounded () =
  (* Sweep the reset over every phase of the SAVE cycle; the skipped
     numbers must stay within (0, 2Kp] and no fresh message may be
     discarded (no reorder on a clean link). *)
  let kp = 25 in
  let gap_us = 8 in
  List.iter
    (fun phase_us ->
      let scenario =
        {
          base with
          protocol = Protocol.save_fetch ~kp ~kq:25 ();
          resets =
            Reset_schedule.single
              ~at:(Time.of_us (5000 + (phase_us * gap_us)))
              ~downtime:(ms 1) Sender;
        }
      in
      let r = Harness.run scenario in
      let m = r.Harness.metrics in
      check_bool
        (Printf.sprintf "phase %d: skipped in (0, 2Kp]" phase_us)
        true
        (m.Metrics.skipped_seqnos > 0 && m.Metrics.skipped_seqnos <= 2 * kp);
      check_int (Printf.sprintf "phase %d: no fresh discard" phase_us) 0
        m.Metrics.fresh_rejected;
      check_int (Printf.sprintf "phase %d: no reuse" phase_us) 0
        m.Metrics.reused_seqnos)
    [ 0; 1; 5; 12; 18; 24 ]

let test_sender_reset_volatile_discards_unboundedly () =
  (* Section 3 paragraph 2: the longer p ran before the reset, the more
     fresh messages die. *)
  let discards_after reset_ms =
    let scenario =
      {
        base with
        horizon = ms (reset_ms + 10);
        protocol = Protocol.Volatile;
        resets = Reset_schedule.single ~at:(ms reset_ms) ~downtime:(ms 1) Sender;
      }
    in
    (Harness.run scenario).Harness.metrics.Metrics.fresh_rejected
  in
  let d5 = discards_after 5 and d10 = discards_after 10 in
  check_bool "discards grow with pre-reset traffic" true (d10 > d5 && d5 > 100)

(* ------------------------------------------------------------------ *)
(* E2: receiver reset *)

let test_receiver_reset_discards_bounded () =
  let kq = 25 in
  List.iter
    (fun reset_us ->
      let scenario =
        {
          base with
          protocol = Protocol.save_fetch ~kp:25 ~kq ();
          resets =
            Reset_schedule.single ~at:(Time.of_us reset_us) ~downtime:(Time.of_us 1)
              Receiver;
        }
      in
      let r = Harness.run scenario in
      let m = r.Harness.metrics in
      check_bool
        (Printf.sprintf "reset@%dus: discards <= 2Kq" reset_us)
        true
        (m.Metrics.fresh_rejected_undelivered <= 2 * kq);
      check_int (Printf.sprintf "reset@%dus: no replay" reset_us) 0
        m.Metrics.replay_accepted)
    [ 5000; 5008; 5040; 7000 ]

let test_receiver_reset_with_replay_flood () =
  let scenario =
    {
      base with
      resets = Reset_schedule.single ~at:(ms 8) ~downtime:(ms 1) Receiver;
      attack = Harness.Flood { start = ms 9; gap = Time.of_us 8 };
    }
  in
  let r = Harness.run scenario in
  check_int "flood fully rejected" 0 r.Harness.metrics.Metrics.replay_accepted;
  check_bool "flood actually ran" true (r.Harness.adversary_injected > 100)

(* ------------------------------------------------------------------ *)
(* E3: volatile receiver + replay-all = unbounded acceptance *)

let replay_all_scenario protocol stop_ms =
  {
    base with
    horizon = ms (stop_ms + 20);
    protocol;
    sender_stop_at = Some (ms stop_ms);
    resets = Reset_schedule.single ~at:(ms (stop_ms + 1)) ~downtime:(ms 1) Receiver;
    attack = Harness.Replay_all_at (ms (stop_ms + 3));
  }

let test_volatile_replay_acceptance_grows () =
  let accepted stop_ms =
    (Harness.run (replay_all_scenario Protocol.Volatile stop_ms)).Harness.metrics
      .Metrics.replay_accepted
  in
  let a5 = accepted 5 and a10 = accepted 10 in
  check_bool "substantial acceptance" true (a5 > 400);
  check_bool "grows with history (unbounded)" true (a10 > a5 + 400)

let test_save_fetch_replay_acceptance_zero () =
  let r = Harness.run (replay_all_scenario (Protocol.save_fetch ~kp:25 ~kq:25 ()) 10) in
  check_int "zero accepted" 0 r.Harness.metrics.Metrics.replay_accepted;
  check_bool "replays did arrive" true (r.Harness.metrics.Metrics.replay_rejected > 400)

(* ------------------------------------------------------------------ *)
(* E5: both reset + wedge *)

let wedge_scenario protocol =
  {
    base with
    horizon = ms 30;
    protocol;
    resets = Reset_schedule.both ~at:(ms 10) ~downtime:(ms 1) ();
    attack = Harness.Wedge_at (ms 11);
  }

let test_wedge_disrupts_volatile () =
  let r = Harness.run (wedge_scenario Protocol.Volatile) in
  let m = r.Harness.metrics in
  check_bool "wedge accepted" true (m.Metrics.replay_accepted >= 1);
  (* the volatile sender restarted at 1 under a window wedged at ~1250:
     a large stretch of fresh traffic dies *)
  check_bool "large fresh kill" true (m.Metrics.fresh_rejected > 200)

let test_wedge_harmless_with_save_fetch () =
  let r = Harness.run (wedge_scenario (Protocol.save_fetch ~kp:25 ~kq:25 ())) in
  let m = r.Harness.metrics in
  check_int "wedge rejected" 0 m.Metrics.replay_accepted;
  check_bool "discards bounded by 2Kq" true (m.Metrics.fresh_rejected_undelivered <= 50)

(* ------------------------------------------------------------------ *)
(* E7: re-establishment baseline *)

let test_reestablish_recovers_but_slowly () =
  let scenario =
    {
      base with
      horizon = ms 60;
      protocol = Protocol.Reestablish { cost = Resets_ipsec.Ike.default_cost };
      resets = Reset_schedule.single ~at:(ms 10) ~downtime:(ms 1) Receiver;
    }
  in
  let r = Harness.run scenario in
  let m = r.Harness.metrics in
  check_int "safe (no replays)" 0 m.Metrics.replay_accepted;
  (* the handshake's 24 ms outage kills ~3000 messages at 8 us/msg *)
  check_bool "expensive outage" true (m.Metrics.dropped_host_down > 2000);
  check_bool "mean disruption >= handshake" true
    (Resets_util.Stats.Sample.mean m.Metrics.disruption_times >= 0.024)

let test_save_fetch_recovery_much_cheaper () =
  let scenario =
    {
      base with
      horizon = ms 60;
      resets = Reset_schedule.single ~at:(ms 10) ~downtime:(ms 1) Receiver;
    }
  in
  let r = Harness.run scenario in
  let m = r.Harness.metrics in
  check_bool "disruption ~downtime" true
    (Resets_util.Stats.Sample.mean m.Metrics.disruption_times < 0.003)

(* ------------------------------------------------------------------ *)
(* Ablations: unsound leaps *)

let test_leap_ablation_zero_leap_unsound () =
  (* leap = 0 reuses the in-flight gap after a mid-save crash; with the
     adversary replaying, safety can break. At minimum the sender reuses
     sequence numbers. *)
  let scenario =
    {
      base with
      horizon = ms 40;
      protocol =
        Protocol.save_fetch ~policy_p:(K_policy.static ~leap:0 25)
          ~policy_q:(K_policy.static ~leap:0 25) ~kp:25 ~kq:25 ();
      resets = Reset_schedule.single ~at:(ms 10) ~downtime:(ms 1) Sender;
    }
  in
  let r = Harness.run scenario in
  check_bool "sequence numbers reused" true
    (r.Harness.metrics.Metrics.reused_seqnos > 0)

let test_leap_ablation_full_leap_sound () =
  let scenario =
    {
      base with
      horizon = ms 40;
      resets =
        Reset_schedule.merge
          (Reset_schedule.single ~at:(ms 10) ~downtime:(ms 1) Sender)
          (Reset_schedule.single ~at:(ms 20) ~downtime:(ms 1) Receiver);
      attack = Harness.Flood { start = ms 1; gap = Time.of_us 40 };
    }
  in
  let r = Harness.run scenario in
  let v = Convergence.check ~scenario r in
  check_bool "all guarantees" true (Convergence.holds v)

(* ------------------------------------------------------------------ *)
(* E13: message-counted vs timer-based SAVE triggers *)

let test_timer_trigger_unsound_under_bursts () =
  (* Section 4's argument: during a burst a long timer lets the durable
     value fall more than 2K behind, so a reset resumes on used
     numbers. *)
  let run save_timer_p =
    Harness.run
      {
        base with
        horizon = ms 100;
        message_gap = Time.of_us 4;
        protocol = Protocol.save_fetch ?save_timer_p ~kp:25 ~kq:25 ();
        traffic = Harness.Bursty { burst_length = 1000; off_duration = ms 20 };
        resets = Reset_schedule.single ~at:(ms 50) ~downtime:(ms 1) Sender;
      }
  in
  let count_mode = run None in
  check_int "count rule sound" 0 count_mode.Harness.metrics.Metrics.reused_seqnos;
  let slow_timer = run (Some (ms 1)) in
  check_bool "1ms timer reuses numbers" true
    (slow_timer.Harness.metrics.Metrics.reused_seqnos > 0)

let test_timer_trigger_wasteful_when_slow () =
  (* ... and on slow traffic a safe (short) timer writes per message
     where the count rule amortizes. *)
  let run save_timer_p =
    let r =
      Harness.run
        {
          base with
          horizon = ms 200;
          message_gap = ms 2;
          protocol = Protocol.save_fetch ?save_timer_p ~kp:25 ~kq:25 ();
        }
    in
    r.Harness.saves_completed_p + r.Harness.saves_lost_p
  in
  let count_writes = run None and timer_writes = run (Some (Time.of_us 100)) in
  check_bool "timer writes per message" true (timer_writes > 15 * count_writes)

(* ------------------------------------------------------------------ *)
(* Convergence verdict plumbing *)

let test_verdict_flags_volatile_failures () =
  let scenario = replay_all_scenario Protocol.Volatile 5 in
  let r = Harness.run scenario in
  let v = Convergence.check ~scenario r in
  check_bool "replay flagged" false v.Convergence.no_replay_accepted;
  check_bool "overall fails" false (Convergence.holds v)

let () =
  Alcotest.run "harness"
    [
      ( "clean",
        [
          Alcotest.test_case "delivers everything" `Quick test_clean_run_delivers_everything;
          Alcotest.test_case "verdict holds" `Quick test_clean_run_verdict_holds;
          Alcotest.test_case "deterministic" `Quick test_determinism_same_seed;
          Alcotest.test_case "seed sensitivity" `Quick test_different_seed_with_jitter_differs;
          Alcotest.test_case "esn framing agrees" `Quick test_esn_framing_agrees_with_seq64;
          Alcotest.test_case "displacement metric" `Quick
            test_displacement_metric_tracks_reorder;
          Alcotest.test_case "lossy link" `Quick test_lossy_link_no_false_positives;
        ] );
      ( "E1 sender reset",
        [
          Alcotest.test_case "loss bounded by 2Kp (phase sweep)" `Quick
            test_sender_reset_loss_bounded;
          Alcotest.test_case "volatile discards grow" `Quick
            test_sender_reset_volatile_discards_unboundedly;
        ] );
      ( "E2 receiver reset",
        [
          Alcotest.test_case "discards bounded by 2Kq" `Quick
            test_receiver_reset_discards_bounded;
          Alcotest.test_case "replay flood rejected" `Quick
            test_receiver_reset_with_replay_flood;
        ] );
      ( "E3 replay-all",
        [
          Alcotest.test_case "volatile acceptance grows" `Quick
            test_volatile_replay_acceptance_grows;
          Alcotest.test_case "save/fetch zero" `Quick test_save_fetch_replay_acceptance_zero;
        ] );
      ( "E5 wedge",
        [
          Alcotest.test_case "disrupts volatile" `Quick test_wedge_disrupts_volatile;
          Alcotest.test_case "harmless with save/fetch" `Quick
            test_wedge_harmless_with_save_fetch;
        ] );
      ( "E7 re-establishment",
        [
          Alcotest.test_case "safe but slow" `Quick test_reestablish_recovers_but_slowly;
          Alcotest.test_case "save/fetch cheaper" `Quick test_save_fetch_recovery_much_cheaper;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "leap 0 unsound" `Quick test_leap_ablation_zero_leap_unsound;
          Alcotest.test_case "leap 2K sound under storm" `Quick
            test_leap_ablation_full_leap_sound;
        ] );
      ( "E13 save trigger",
        [
          Alcotest.test_case "timer unsound under bursts" `Quick
            test_timer_trigger_unsound_under_bursts;
          Alcotest.test_case "timer wasteful when slow" `Quick
            test_timer_trigger_wasteful_when_slow;
        ] );
      ( "verdict",
        [ Alcotest.test_case "flags failures" `Quick test_verdict_flags_volatile_failures ] );
    ]
