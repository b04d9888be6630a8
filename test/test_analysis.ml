(* Tests for the closed-form analysis (Section 4's K rule and Section
   5's bounds), the protocol descriptors and the metrics accounting. *)

open Resets_sim
open Resets_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Analysis: bounds *)

let test_bounds_scale_linearly () =
  check_int "sender gap" 50 (Analysis.max_sender_gap ~kp:25);
  check_int "lost" 50 (Analysis.max_lost_seqnos ~kp:25);
  check_int "receiver gap" 8 (Analysis.max_receiver_gap ~kq:4);
  check_int "discards" 8 (Analysis.max_fresh_discards ~kq:4);
  check_int "leap" 2 (Analysis.leap ~k:1)

let test_k_min_paper_example () =
  (* "a write-to-file operation takes 100 µs and sending a 1000-byte
     message takes 4 µs ... we can set the interval ... to be at least
     25." *)
  check_int "paper's 25" 25
    (Analysis.k_min ~save_latency:(Time.of_us 100) ~message_gap:(Time.of_us 4))

let test_k_min_rounding () =
  check_int "exact division" 10
    (Analysis.k_min ~save_latency:(Time.of_us 100) ~message_gap:(Time.of_us 10));
  check_int "rounds up" 34
    (Analysis.k_min ~save_latency:(Time.of_us 100) ~message_gap:(Time.of_ns 3_000L));
  check_int "slow traffic" 1
    (Analysis.k_min ~save_latency:(Time.of_us 100) ~message_gap:(Time.of_ms 1))

let test_k_min_invalid () =
  Alcotest.check_raises "zero gap"
    (Invalid_argument "Analysis.k_min: message gap must be positive") (fun () ->
      ignore (Analysis.k_min ~save_latency:(Time.of_us 100) ~message_gap:Time.zero))

let test_write_fraction () =
  Alcotest.(check (float 1e-9)) "1/25" 0.04 (Analysis.save_write_fraction ~k:25);
  Alcotest.check_raises "k=0"
    (Invalid_argument "Analysis.save_write_fraction: k must be positive") (fun () ->
      ignore (Analysis.save_write_fraction ~k:0))

let test_sender_loss_exact () =
  (* Figure 1, both branches, every phase. *)
  let kp = 5 in
  for phase = 0 to kp - 1 do
    let in_flight = Analysis.sender_loss ~kp ~reset_phase:phase ~save_in_flight:true in
    let completed = Analysis.sender_loss ~kp ~reset_phase:phase ~save_in_flight:false in
    check_bool "in-flight loss within (0, 2Kp]" true (in_flight > 0 && in_flight <= 2 * kp);
    check_bool "completed loss within (0, 2Kp]" true (completed > 0 && completed <= 2 * kp);
    check_int "branches differ by Kp" kp (completed - in_flight)
  done;
  (* worst case: reset immediately after a completed SAVE *)
  check_int "worst case = 2Kp" 10
    (Analysis.sender_loss ~kp ~reset_phase:0 ~save_in_flight:false);
  Alcotest.check_raises "phase range"
    (Invalid_argument "Analysis.sender_loss: reset_phase must be in [0, kp)") (fun () ->
      ignore (Analysis.sender_loss ~kp ~reset_phase:5 ~save_in_flight:true))

let test_receiver_discards_exact () =
  let kq = 7 in
  for phase = 0 to kq - 1 do
    let d = Analysis.receiver_discards ~kq ~reset_phase:phase ~save_in_flight:true in
    check_bool "bounded" true (d <= Analysis.max_fresh_discards ~kq)
  done;
  check_int "worst case = 2Kq" 14
    (Analysis.receiver_discards ~kq ~reset_phase:0 ~save_in_flight:false)

let test_recovery_cost_model () =
  let cost = Resets_ipsec.Ike.default_cost in
  let re1 = Analysis.reestablish_recovery_time ~cost ~sa_count:1 in
  let re64 = Analysis.reestablish_recovery_time ~cost ~sa_count:64 in
  Alcotest.(check int64) "linear in SA count" (Int64.mul (Time.to_ns re1) 64L)
    (Time.to_ns re64);
  check_int "4 messages per SA" 256 (Analysis.reestablish_message_count ~sa_count:64);
  check_int "save/fetch sends nothing" 0 (Analysis.save_fetch_message_count ~sa_count:64);
  let sf = Analysis.save_fetch_recovery_time ~save_latency:(Time.of_us 100) ~sa_count:64 in
  check_bool "save/fetch orders of magnitude cheaper" true Time.(sf < re1)

(* ------------------------------------------------------------------ *)
(* Protocol descriptors *)

let test_protocol_defaults () =
  match Protocol.save_fetch ~kp:25 ~kq:10 () with
  | Protocol.Save_fetch { sender; receiver; robust_receiver; wakeup_buffer } ->
    check_int "kp" 25 sender.Protocol.k;
    check_int "kq" 10 receiver.Protocol.k;
    check_int "leap p" 50 (Protocol.resolved_leap sender);
    check_int "leap q" 20 (Protocol.resolved_leap receiver);
    Alcotest.(check int64) "paper save latency" 100_000L
      (Time.to_ns sender.Protocol.save_latency);
    check_bool "not robust by default" false robust_receiver;
    check_bool "buffers by default" true wakeup_buffer
  | Protocol.Volatile | Protocol.Reestablish _ -> Alcotest.fail "wrong constructor"

let test_protocol_leap_override () =
  match Protocol.save_fetch ~leap_p:0 ~leap_q:7 ~kp:5 ~kq:5 () with
  | Protocol.Save_fetch { sender; receiver; _ } ->
    check_int "leap p overridden" 0 (Protocol.resolved_leap sender);
    check_int "leap q overridden" 7 (Protocol.resolved_leap receiver)
  | Protocol.Volatile | Protocol.Reestablish _ -> Alcotest.fail "wrong constructor"

let test_protocol_validation () =
  Alcotest.check_raises "k=0" (Invalid_argument "Protocol.persistence: k must be positive")
    (fun () -> ignore (Protocol.persistence ~k:0 ()))

let test_protocol_to_string () =
  Alcotest.(check string) "volatile" "volatile" (Protocol.to_string Protocol.Volatile);
  Alcotest.(check string) "save-fetch" "save-fetch(Kp=1, Kq=2)"
    (Protocol.to_string (Protocol.save_fetch ~kp:1 ~kq:2 ()));
  Alcotest.(check string) "robust tag" "save-fetch(Kp=1, Kq=2, robust)"
    (Protocol.to_string (Protocol.save_fetch ~robust_receiver:true ~kp:1 ~kq:2 ()))

(* ------------------------------------------------------------------ *)
(* Metrics accounting *)

let test_metrics_delivery_accounting () =
  let m = Metrics.create () in
  Metrics.record_delivery m ~seq:5 ~replayed:false;
  Metrics.record_delivery m ~seq:6 ~replayed:false;
  Metrics.record_delivery m ~seq:5 ~replayed:true;
  check_int "delivered" 3 m.Metrics.delivered;
  check_int "distinct" 2 (Metrics.delivered_distinct m);
  check_int "duplicates" 1 m.Metrics.duplicate_deliveries;
  check_int "replay accepted" 1 m.Metrics.replay_accepted;
  check_int "max" 6 (Metrics.max_delivered_seq m);
  check_int "count of 5" 2 (Metrics.delivery_count m ~seq:5)

let test_metrics_rejection_accounting () =
  let m = Metrics.create () in
  Metrics.record_rejection m ~seq:9 ~replayed:true;
  check_int "replay rejected" 1 m.Metrics.replay_rejected;
  Metrics.record_rejection m ~seq:9 ~replayed:false;
  check_int "fresh rejected" 1 m.Metrics.fresh_rejected;
  check_int "undelivered" 1 m.Metrics.fresh_rejected_undelivered;
  Metrics.record_delivery m ~seq:10 ~replayed:false;
  Metrics.record_rejection m ~seq:10 ~replayed:false;
  check_int "already-delivered rejection not undelivered" 1
    m.Metrics.fresh_rejected_undelivered;
  check_int "but counted as fresh rejection" 2 m.Metrics.fresh_rejected

let test_metrics_epochs_isolate_sequence_spaces () =
  let m = Metrics.create () in
  Metrics.record_delivery m ~seq:1 ~replayed:false;
  Metrics.bump_epoch m;
  Metrics.record_delivery m ~seq:1 ~replayed:false;
  check_int "no cross-epoch duplicate" 0 m.Metrics.duplicate_deliveries;
  check_int "fresh count in new epoch" 1 (Metrics.delivery_count m ~seq:1)

(* The reference ledger: the (epoch, seq) -> count table Metrics kept
   before its bitmap pages, with the counters that read it. *)
module Table_ledger = struct
  type t = {
    counts : (int * int, int) Hashtbl.t;
    mutable epoch : int;
    mutable duplicate_deliveries : int;
    mutable fresh_rejected_undelivered : int;
  }

  let create () =
    {
      counts = Hashtbl.create 64;
      epoch = 0;
      duplicate_deliveries = 0;
      fresh_rejected_undelivered = 0;
    }

  let bump_epoch t = t.epoch <- t.epoch + 1

  let delivery_count t ~seq =
    Option.value ~default:0 (Hashtbl.find_opt t.counts (t.epoch, seq))

  let record_delivery t ~seq =
    let previous = delivery_count t ~seq in
    Hashtbl.replace t.counts (t.epoch, seq) (previous + 1);
    if previous > 0 then t.duplicate_deliveries <- t.duplicate_deliveries + 1

  let record_rejection t ~seq ~replayed =
    if (not replayed) && delivery_count t ~seq = 0 then
      t.fresh_rejected_undelivered <- t.fresh_rejected_undelivered + 1

  let delivered_distinct t = Hashtbl.length t.counts
end

(* Which number an op touches, relative to a cursor that the
   advancing targets move. *)
type target =
  | Next  (** the number after the cursor: in order *)
  | Back of int  (** [d] behind the cursor: reordered, or a duplicate *)
  | Leap of int  (** [2k] ahead, as after a wakeup *)
  | Far of int  (** at least 2^32 ahead *)
  | Edge of bool  (** the last number before the next multiple of 512, or that multiple *)

type ledger_op =
  | Deliver of target
  | Reject of target * bool  (** replayed? *)
  | Bump of bool  (** new epoch; does its numbering restart at 1? *)

let show_target = function
  | Next -> "next"
  | Back d -> Printf.sprintf "back %d" d
  | Leap k -> Printf.sprintf "leap 2*%d" k
  | Far r -> Printf.sprintf "far +2^32+%d" r
  | Edge after -> if after then "edge after" else "edge before"

let show_ledger_op = function
  | Deliver t -> "deliver " ^ show_target t
  | Reject (t, r) -> Printf.sprintf "reject%s %s" (if r then " replay" else "") (show_target t)
  | Bump restart -> if restart then "bump restart" else "bump"

let target_gen =
  QCheck.Gen.(
    frequency
      [
        (8, return Next);
        (5, map (fun d -> Back d) (int_range 0 70));
        (2, map (fun k -> Leap k) (int_range 1 64));
        (1, map (fun r -> Far r) (int_range 0 1_000_000));
        (2, map (fun a -> Edge a) bool);
      ])

let ledger_op_gen =
  QCheck.Gen.(
    frequency
      [
        (12, map (fun t -> Deliver t) target_gen);
        (4, map2 (fun t r -> Reject (t, r)) target_gen bool);
        (1, map (fun r -> Bump r) bool);
      ])

let ledger_matches_table =
  QCheck.Test.make ~name:"delivery ledger == (epoch, seq) table" ~count:400
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_ledger_op ops))
       QCheck.Gen.(list_size (int_range 1 150) ledger_op_gen))
    (fun ops ->
      let m = Metrics.create () and r = Table_ledger.create () in
      let cursor = ref 0 in
      let touched = Hashtbl.create 64 in
      let advance seq =
        cursor := seq;
        seq
      in
      let pick = function
        | Back d -> !cursor - d
        | Next -> advance (!cursor + 1)
        | Leap k -> advance (!cursor + (2 * k))
        | Far d -> advance (!cursor + (1 lsl 32) + d)
        | Edge after ->
          let next_edge = ((!cursor / 512) + 1) * 512 in
          advance (if after then next_edge else next_edge - 1)
      in
      let agree () =
        Metrics.delivered_distinct m = Table_ledger.delivered_distinct r
        && m.Metrics.duplicate_deliveries = r.Table_ledger.duplicate_deliveries
        && m.Metrics.fresh_rejected_undelivered
           = r.Table_ledger.fresh_rejected_undelivered
        && Hashtbl.fold
             (fun seq () ok ->
               ok
               && List.for_all
                    (fun s ->
                      Metrics.delivery_count m ~seq:s
                      = Table_ledger.delivery_count r ~seq:s)
                    [ seq - 1; seq; seq + 1 ])
             touched true
      in
      List.for_all
        (fun op ->
          (match op with
          | Deliver t ->
            let seq = pick t in
            Hashtbl.replace touched seq ();
            Metrics.record_delivery m ~seq ~replayed:false;
            Table_ledger.record_delivery r ~seq
          | Reject (t, replayed) ->
            let seq = pick t in
            Hashtbl.replace touched seq ();
            Metrics.record_rejection m ~seq ~replayed;
            Table_ledger.record_rejection r ~seq ~replayed
          | Bump restart ->
            Metrics.bump_epoch m;
            Table_ledger.bump_epoch r;
            if restart then cursor := 0);
          agree ())
        ops)

(* 10^6 in-order deliveries: the ledger must stay near one bit per
   number (a table entry per number would take tens of megabytes), so a
   receive daemon's metrics do not grow with its uptime. *)
let test_metrics_ledger_footprint () =
  let m = Metrics.create () in
  for seq = 1 to 1_000_000 do
    Metrics.record_delivery m ~seq ~replayed:false
  done;
  check_int "distinct" 1_000_000 (Metrics.delivered_distinct m);
  let bytes = Obj.reachable_words (Obj.repr m) * (Sys.word_size / 8) in
  if bytes >= 256 * 1024 then
    Alcotest.failf "one Metrics.t holds %d bytes after 10^6 deliveries (budget 256 KiB)"
      bytes

(* ------------------------------------------------------------------ *)
(* Convergence verdicts (direct) *)

let clean_scenario =
  {
    Harness.default with
    horizon = Time.of_ms 5;
    protocol = Protocol.save_fetch ~kp:25 ~kq:25 ();
  }

let test_verdict_holds_on_clean_run () =
  let r = Harness.run clean_scenario in
  let v = Convergence.check ~scenario:clean_scenario r in
  check_bool "holds" true (Convergence.holds v);
  check_bool "every component" true
    (v.Convergence.no_replay_accepted && v.Convergence.no_duplicate_delivery
   && v.Convergence.no_seqno_reuse && v.Convergence.skipped_within_bound
   && v.Convergence.discards_within_bound && v.Convergence.delivery_resumed)

let test_verdict_bounds_are_per_reset () =
  (* two sender resets allow up to 2 * 2Kp skipped numbers *)
  let scenario =
    {
      clean_scenario with
      Harness.horizon = Time.of_ms 30;
      resets =
        Resets_workload.Reset_schedule.periodic ~every:(Time.of_ms 8)
          ~downtime:(Time.of_ms 1) ~count:2 Resets_workload.Reset_schedule.Sender;
    }
  in
  let r = Harness.run scenario in
  let v = Convergence.check ~scenario r in
  check_bool "skipped within 2 resets' bound" true v.Convergence.skipped_within_bound;
  check_bool "holds overall" true (Convergence.holds v)

let test_verdict_pp_mentions_failures () =
  let r = Harness.run clean_scenario in
  let v = Convergence.check ~scenario:clean_scenario r in
  let text = Format.asprintf "%a" Convergence.pp v in
  check_bool "prints ok flags" true
    (String.length text > 0
    &&
    let rec contains i =
      i + 2 <= String.length text && (String.sub text i 2 = "ok" || contains (i + 1))
    in
    contains 0)

let () =
  Alcotest.run "analysis"
    [
      ( "bounds",
        [
          Alcotest.test_case "linear scaling" `Quick test_bounds_scale_linearly;
          Alcotest.test_case "paper's K=25" `Quick test_k_min_paper_example;
          Alcotest.test_case "k_min rounding" `Quick test_k_min_rounding;
          Alcotest.test_case "k_min invalid" `Quick test_k_min_invalid;
          Alcotest.test_case "write fraction" `Quick test_write_fraction;
          Alcotest.test_case "sender loss exact" `Quick test_sender_loss_exact;
          Alcotest.test_case "receiver discards exact" `Quick test_receiver_discards_exact;
          Alcotest.test_case "recovery cost model" `Quick test_recovery_cost_model;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "defaults" `Quick test_protocol_defaults;
          Alcotest.test_case "leap override" `Quick test_protocol_leap_override;
          Alcotest.test_case "validation" `Quick test_protocol_validation;
          Alcotest.test_case "to_string" `Quick test_protocol_to_string;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "delivery accounting" `Quick test_metrics_delivery_accounting;
          Alcotest.test_case "rejection accounting" `Quick test_metrics_rejection_accounting;
          Alcotest.test_case "epoch isolation" `Quick
            test_metrics_epochs_isolate_sequence_spaces;
          QCheck_alcotest.to_alcotest ledger_matches_table;
          Alcotest.test_case "ledger footprint" `Quick test_metrics_ledger_footprint;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "clean run holds" `Quick test_verdict_holds_on_clean_run;
          Alcotest.test_case "per-reset bounds" `Quick test_verdict_bounds_are_per_reset;
          Alcotest.test_case "pretty printer" `Quick test_verdict_pp_mentions_failures;
        ] );
    ]
