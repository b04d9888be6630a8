(* Section 6 prolonged-reset scheme: dead-peer detection, keep-alive,
   announcement acceptance, replayed-announcement rejection. *)

open Resets_sim
open Resets_core

let check_bool = Alcotest.(check bool)

let cfg = Bidirectional.default_config
let ms = Time.of_ms

let run ?replay_announce ~downtime () =
  Bidirectional.run ?replay_announce ~reset_at:(ms 10) ~downtime
    ~horizon:(Time.add (ms 80) downtime) cfg

let test_death_detected () =
  let o = run ~downtime:(ms 10) () in
  match o.Bidirectional.death_detected_at with
  | None -> Alcotest.fail "death never detected"
  | Some t ->
    check_bool "after the reset" true Time.(ms 10 < t);
    check_bool "well before wakeup" true Time.(t < ms 16)

let test_short_outage_converges () =
  let o = run ~downtime:(ms 10) () in
  check_bool "sa kept" true o.Bidirectional.sa_survived;
  check_bool "announce accepted" true o.Bidirectional.announce_accepted;
  (match o.Bidirectional.convergence_time with
  | None -> Alcotest.fail "did not converge"
  | Some t ->
    (* convergence = outage + one blocking save + one link flight *)
    check_bool "convergence ~ outage" true Time.(t < ms 12));
  check_bool "traffic resumed" true (o.Bidirectional.deliveries_after_recovery > 100)

let test_replayed_announce_rejected () =
  let o = run ~replay_announce:true ~downtime:(ms 10) () in
  check_bool "announce accepted once" true o.Bidirectional.announce_accepted;
  check_bool "replayed copy rejected" true o.Bidirectional.replayed_announce_rejected

let test_long_outage_tears_down () =
  (* keep_alive is 50 ms: a 70 ms outage crosses it. *)
  let o = run ~downtime:(ms 70) () in
  check_bool "sa torn down" false o.Bidirectional.sa_survived;
  check_bool "announce fails (keys gone)" false o.Bidirectional.announce_accepted;
  check_bool "no convergence" true (o.Bidirectional.convergence_time = None)

let test_outage_just_inside_keepalive () =
  let o = run ~downtime:(ms 40) () in
  check_bool "sa kept" true o.Bidirectional.sa_survived;
  check_bool "converges" true (o.Bidirectional.convergence_time <> None)

let test_esn_framing_converges_and_rejects_replay () =
  (* same scenario as above, but the A->B SA uses Esn32 wire framing,
     so the adversary-side replay peek must reconstruct the full
     sequence number from the 32 low bits (the framing-aware path) *)
  let cfg =
    { Bidirectional.default_config with Bidirectional.framing = Resets_ipsec.Sa.Esn32 }
  in
  let o =
    Bidirectional.run ~replay_announce:true ~reset_at:(ms 10) ~downtime:(ms 10)
      ~horizon:(ms 90) cfg
  in
  check_bool "sa kept" true o.Bidirectional.sa_survived;
  check_bool "announce accepted" true o.Bidirectional.announce_accepted;
  check_bool "replayed copy rejected" true o.Bidirectional.replayed_announce_rejected;
  check_bool "converges" true (o.Bidirectional.convergence_time <> None);
  check_bool "traffic resumed" true (o.Bidirectional.deliveries_after_recovery > 100)

let test_deterministic () =
  let a = run ~downtime:(ms 10) () and b = run ~downtime:(ms 10) () in
  check_bool "same outcome" true
    (a.Bidirectional.convergence_time = b.Bidirectional.convergence_time
    && a.Bidirectional.deliveries_after_recovery
       = b.Bidirectional.deliveries_after_recovery)

let () =
  Alcotest.run "bidirectional"
    [
      ( "section 6",
        [
          Alcotest.test_case "death detected" `Quick test_death_detected;
          Alcotest.test_case "short outage converges" `Quick test_short_outage_converges;
          Alcotest.test_case "replayed announce rejected" `Quick
            test_replayed_announce_rejected;
          Alcotest.test_case "long outage tears down" `Quick test_long_outage_tears_down;
          Alcotest.test_case "inside keep-alive" `Quick test_outage_just_inside_keepalive;
          Alcotest.test_case "esn framing" `Quick
            test_esn_framing_converges_and_rejects_replay;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
        ] );
    ]
