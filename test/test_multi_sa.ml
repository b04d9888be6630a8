(* Tests for the Multi_sa composer (many Endpoints over one host) and
   the refactor's differential guarantee: the unified Endpoint/Multi_sa
   datapath reproduces the paper-bound verdicts recorded in the
   committed BENCH_*.json artifacts. *)

open Resets_util
open Resets_sim
open Resets_core
open Resets_workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let us = Time.of_us
let ms = Time.of_ms

(* ------------------------------------------------------------------ *)
(* Discipline outcomes on a small, fast host *)

(* A LAN-speed IKE (as in Rekey's default) so the re-establishment
   discipline finishes inside the horizon: 2.8 ms per handshake. *)
let lan_ike =
  { Resets_ipsec.Ike.compute = us 200; rtt = ms 1; kdf_iterations = 256 }

let cfg =
  {
    Multi_sa.default_config with
    Multi_sa.sa_count = 4;
    k = 10;
    reset_at = ms 5;
    downtime = ms 1;
    horizon = ms 40;
    ike_cost = lan_ike;
  }

let test_per_sa_outcome () =
  let o = Multi_sa.run `Save_fetch_per_sa cfg in
  check_bool "recovered fully" true o.Multi_sa.recovered_fully;
  check_int "no duplicates" 0 o.Multi_sa.duplicate_deliveries;
  check_int "no replays accepted" 0 o.Multi_sa.replay_accepted;
  check_int "no handshakes" 0 o.Multi_sa.handshake_messages;
  check_bool "persists periodically" true (o.Multi_sa.disk_writes > 0);
  check_bool "delivers" true (o.Multi_sa.delivered > 0);
  check_bool "events counted" true
    (o.Multi_sa.events_fired > o.Multi_sa.delivered)

let test_coalesced_beats_per_sa () =
  let per_sa = Multi_sa.run `Save_fetch_per_sa cfg in
  let coalesced = Multi_sa.run `Save_fetch_coalesced cfg in
  check_bool "recovered fully" true coalesced.Multi_sa.recovered_fully;
  check_int "no duplicates" 0 coalesced.Multi_sa.duplicate_deliveries;
  (* per-SA pays the disk once per SA at wakeup; coalesced pays once *)
  check_bool "ready sooner" true
    Time.(coalesced.Multi_sa.ready_time < per_sa.Multi_sa.ready_time);
  check_bool "fewer disk writes" true
    (coalesced.Multi_sa.disk_writes < per_sa.Multi_sa.disk_writes)

let test_reestablish_renegotiates_per_sa () =
  let o = Multi_sa.run `Reestablish cfg in
  check_bool "recovered fully (LAN IKE)" true o.Multi_sa.recovered_fully;
  check_int "4 handshake messages per SA"
    (Resets_ipsec.Ike.message_count * cfg.Multi_sa.sa_count)
    o.Multi_sa.handshake_messages;
  check_int "nothing persisted" 0 o.Multi_sa.disk_writes;
  let coalesced = Multi_sa.run `Save_fetch_coalesced cfg in
  check_bool "slower than coalesced SAVE/FETCH" true
    Time.(coalesced.Multi_sa.ready_time < o.Multi_sa.ready_time)

let test_attack_rejected_under_every_discipline () =
  (* Replay everything captured, against every SA's link, after the
     host has recovered: nothing may be accepted. *)
  let attacked = { cfg with Multi_sa.attack = Endpoint.Replay_all_at (ms 10) } in
  List.iter
    (fun d ->
      let o = Multi_sa.run d attacked in
      check_bool "adversary injected" true (o.Multi_sa.adversary_injected > 0);
      check_int "zero replays accepted" 0 o.Multi_sa.replay_accepted;
      check_int "zero duplicate deliveries" 0 o.Multi_sa.duplicate_deliveries)
    [ `Save_fetch_per_sa; `Save_fetch_coalesced; `Reestablish ]

let test_sa_count_validated () =
  Alcotest.check_raises "zero SAs"
    (Invalid_argument "Multi_sa.run: sa_count must be positive") (fun () ->
      ignore (Multi_sa.run `Save_fetch_per_sa { cfg with Multi_sa.sa_count = 0 }))

(* ------------------------------------------------------------------ *)
(* Differential tests against the committed artifacts: re-run the
   bench scenarios through the refactored datapath and require the
   same paper-bound verdicts (and, for the deterministic E1/E2 sweeps,
   the exact same measured values). The artifacts are declared as dune
   deps, so they sit one level above the test cwd. *)

let load name =
  (* dune runtest runs with cwd [_build/default/test] and the deps one
     level up; [dune exec test/test_multi_sa.exe] runs from the repo
     root where the artifacts live. *)
  let path =
    let up = Filename.concat Filename.parent_dir_name name in
    if Sys.file_exists up then up else name
  in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  Json.parse_exn s

let field row key = Option.get (Json.member key row)
let int_field row key = Option.get (Json.as_int (field row key))

let rows doc table =
  Option.get (Json.as_list (field (field doc "measured") table))

let operating_point ?(kp = 25) ?(kq = 25) ?(horizon = ms 40) () =
  {
    Harness.default with
    Harness.horizon;
    message_gap = us 4;
    protocol = Protocol.save_fetch ~kp ~kq ();
  }

let test_differential_e1 () =
  (* Bench E1: sender reset swept across the SAVE cycle. Each committed
     row must reproduce exactly, and stay within its 2Kp bound. *)
  let doc = load "BENCH_E1.json" in
  let sweep = rows doc "sweep" in
  check_bool "sweep non-empty" true (sweep <> []);
  List.iter
    (fun row ->
      let kp = int_field row "kp" and phase = int_field row "phase" in
      let trigger_msg = kp * 40 in
      let reset_at = Time.add (us ((trigger_msg + phase) * 4)) (us 2) in
      let scenario =
        {
          (operating_point ~kp ()) with
          Harness.resets =
            Reset_schedule.single ~at:reset_at ~downtime:(ms 1)
              Reset_schedule.Sender;
        }
      in
      let m = (Harness.run scenario).Harness.metrics in
      let tag fmt = Printf.sprintf ("Kp=%d phase=%d: " ^^ fmt) kp phase in
      check_int (tag "skipped_seqnos") (int_field row "skipped_seqnos")
        m.Metrics.skipped_seqnos;
      check_int (tag "fresh_rejected") (int_field row "fresh_rejected")
        m.Metrics.fresh_rejected;
      check_int (tag "reused_seqnos") (int_field row "reused_seqnos")
        m.Metrics.reused_seqnos;
      check_bool
        (tag "loss within 2Kp")
        true
        (m.Metrics.skipped_seqnos > 0
        && m.Metrics.skipped_seqnos <= int_field row "bound_2kp"))
    sweep

let test_differential_e2 () =
  (* Bench E2: receiver reset + replay-all attack. Exact discard counts
     and the zero-replay verdict. *)
  let doc = load "BENCH_E2.json" in
  let sweep = rows doc "sweep" in
  check_bool "sweep non-empty" true (sweep <> []);
  List.iter
    (fun row ->
      let kq = int_field row "kq" in
      let reset_at = Time.add (us (kq * 40 * 4)) (us 2) in
      let scenario =
        {
          (operating_point ~kq
             ~horizon:(Time.add reset_at (Time.add (ms 5) (us (kq * 40 * 5))))
             ())
          with
          Harness.resets =
            Reset_schedule.single ~at:reset_at ~downtime:(us 1)
              Reset_schedule.Receiver;
          attack = Harness.Replay_all_at (Time.add (us (kq * 40 * 4)) (ms 1));
        }
      in
      let m = (Harness.run scenario).Harness.metrics in
      let tag fmt = Printf.sprintf ("Kq=%d: " ^^ fmt) kq in
      check_int (tag "fresh_discards") (int_field row "fresh_discards")
        m.Metrics.fresh_rejected_undelivered;
      check_int (tag "replay_rejected") (int_field row "replay_rejected")
        m.Metrics.replay_rejected;
      check_int (tag "zero replays accepted") 0 m.Metrics.replay_accepted;
      check_bool
        (tag "discards within 2Kq")
        true
        (m.Metrics.fresh_rejected_undelivered <= int_field row "bound_2kq"))
    sweep

let test_differential_e7 () =
  (* Bench E7's multi-SA table, at verdict level: re-run the recorded
     (sa_count, discipline) points through the refactored Multi_sa and
     require the same recovery verdicts and orderings. *)
  let doc = load "BENCH_E7.json" in
  let table = rows doc "multi_sa" in
  check_bool "table non-empty" true (table <> []);
  let outcomes = Hashtbl.create 8 in
  List.iter
    (fun row ->
      let n = int_field row "sa_count" in
      let name = Option.get (Json.as_string (field row "discipline")) in
      if n <= 16 then begin
        let discipline =
          match name with
          | "per-sa" -> `Save_fetch_per_sa
          | "coalesced" -> `Save_fetch_coalesced
          | "reestablish" -> `Reestablish
          | other -> Alcotest.failf "unknown discipline %s" other
        in
        let o =
          Multi_sa.run discipline
            { Multi_sa.default_config with Multi_sa.sa_count = n }
        in
        Hashtbl.replace outcomes (n, name) o;
        check_bool
          (Printf.sprintf "n=%d %s: recovery verdict unchanged" n name)
          (Option.get (Json.as_bool (field row "recovered_fully")))
          o.Multi_sa.recovered_fully;
        check_int
          (Printf.sprintf "n=%d %s: zero replays accepted" n name)
          0 o.Multi_sa.replay_accepted
      end)
    table;
  (* the paper's recovery comparison: SAVE/FETCH beats re-establishment,
     and coalescing keeps recovery flat in the SA count *)
  let ready n name = (Hashtbl.find outcomes (n, name)).Multi_sa.ready_time in
  check_bool "n=16: per-sa SAVE/FETCH ready before re-establishment" true
    Time.(ready 16 "per-sa" < ready 16 "reestablish");
  check_bool "n=16: coalesced ready before per-sa" true
    Time.(ready 16 "coalesced" < ready 16 "per-sa");
  check_bool "coalesced recovery is O(1): same at 1 and 16 SAs" true
    (Time.to_sec (ready 16 "coalesced") <= Time.to_sec (ready 1 "coalesced") *. 1.01)

let () =
  Alcotest.run "multi_sa"
    [
      ( "disciplines",
        [
          Alcotest.test_case "per-sa outcome" `Quick test_per_sa_outcome;
          Alcotest.test_case "coalesced beats per-sa" `Quick
            test_coalesced_beats_per_sa;
          Alcotest.test_case "reestablish" `Quick
            test_reestablish_renegotiates_per_sa;
          Alcotest.test_case "replay-all rejected" `Quick
            test_attack_rejected_under_every_discipline;
          Alcotest.test_case "sa_count validated" `Quick test_sa_count_validated;
        ] );
      ( "differential",
        [
          Alcotest.test_case "E1 sender-reset sweep" `Quick test_differential_e1;
          Alcotest.test_case "E2 receiver-reset sweep" `Quick test_differential_e2;
          Alcotest.test_case "E7 multi-SA verdicts" `Quick test_differential_e7;
        ] );
    ]
