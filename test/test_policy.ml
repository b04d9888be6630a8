(* Tests for the K policy layer: the static/adaptive SAVE-interval
   controller, the closed-form k_of_rates helper, the stealth
   degradation planners, and the paired-oracle run. *)

open Resets_sim
open Resets_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let us = Time.of_us
let ms = Time.of_ms

(* ------------------------------------------------------------------ *)
(* Analysis.k_of_rates *)

let test_k_of_rates_paper_example () =
  check_int "paper's 25" 25
    (Analysis.k_of_rates ~t_save:(us 100) ~t_msg:(us 4));
  check_int "slow traffic floors at 1" 1
    (Analysis.k_of_rates ~t_save:(us 100) ~t_msg:(ms 10));
  check_int "instant save floors at 1" 1
    (Analysis.k_of_rates ~t_save:Time.zero ~t_msg:(us 4))

let test_k_of_rates_invalid () =
  check_bool "zero gap rejected" true
    (match Analysis.k_of_rates ~t_save:(us 100) ~t_msg:Time.zero with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* K_policy: static *)

let test_static_is_inert () =
  let p = K_policy.make (K_policy.static 25) in
  check_bool "not adaptive" false (K_policy.is_adaptive p);
  check_int "current" 25 (K_policy.current p);
  check_int "leap" 50 (K_policy.leap p);
  check_int "max leap" 50 (K_policy.max_leap p);
  (* observations are no-ops: nothing moves, nothing is counted *)
  for _ = 1 to 100 do
    K_policy.observe_save_latency p (ms 10);
    K_policy.observe_send_gap p (us 1)
  done;
  check_int "still current" 25 (K_policy.current p);
  check_int "no adjustments" 0 (K_policy.adjustments p);
  check_int "no observations" 0 (K_policy.observations p);
  Alcotest.(check string) "describe" "25" (K_policy.describe (K_policy.static 25));
  Alcotest.(check string)
    "describe adaptive" "auto:25"
    (K_policy.describe (K_policy.adaptive ~initial_k:25 ()))

let test_static_validation () =
  check_bool "k = 0 rejected" true
    (match K_policy.static 0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The APN models cannot depend on lib/core, so they keep their own
   default leap. It must be the leap K_policy gives the code, or a
   verdict E11 proves about the model says nothing about the code. *)
let test_model_leap_is_code_leap () =
  for k = 1 to 6 do
    let code = K_policy.leap (K_policy.make (K_policy.static k)) in
    let model_leap (p : Resets_apn.Ast.process) = List.assoc "leap" p.consts in
    check_int
      (Printf.sprintf "augmented_p ~kp:%d" k)
      code
      (model_leap (Resets_apn.Models.augmented_p ~kp:k ()));
    check_int
      (Printf.sprintf "augmented_q ~kq:%d" k)
      code
      (model_leap (Resets_apn.Models.augmented_q ~kq:k ~w:2 ()))
  done

(* ------------------------------------------------------------------ *)
(* K_policy: adaptive controller *)

(* Feed [n] (latency, gap) observation pairs and return the trace of
   [current] after each pair. *)
let feed p ~latency ~gap n =
  List.init n (fun _ ->
      K_policy.observe_send_gap p gap;
      K_policy.observe_save_latency p latency;
      K_policy.current p)

let direction_changes trace =
  let rec go last_dir changes = function
    | a :: (b :: _ as rest) ->
      let dir = compare b a in
      if dir = 0 then go last_dir changes rest
      else if last_dir <> 0 && dir <> last_dir then go dir (changes + 1) rest
      else go dir changes rest
    | _ -> changes
  in
  go 0 0 trace

let test_adaptive_converges_above_floor () =
  let p = K_policy.make (K_policy.adaptive ~initial_k:25 ()) in
  (* 4 ms writes against 40 us messages: the effective floor is 100;
     with 1.2x headroom the controller must settle at or above it. *)
  let trace = feed p ~latency:(ms 4) ~gap:(us 40) 200 in
  let final = List.nth trace (List.length trace - 1) in
  check_bool "settled above the effective floor" true (final >= 100);
  check_bool "bounded by the ceiling" true (final <= 4096);
  check_bool "controller actually moved" true (K_policy.adjustments p > 0);
  match K_policy.derived_floor p with
  | None -> Alcotest.fail "derived floor missing after observations"
  | Some f -> check_bool "derived floor >= 100" true (f >= 100)

let test_adaptive_no_oscillation_on_step () =
  let p = K_policy.make (K_policy.adaptive ~initial_k:25 ()) in
  (* Steady state at the nominal operating point, then a step change
     to 40x latency. The hysteresis dead-band must keep K from
     chattering: monotone rise to the new level, no ping-pong. *)
  let before = feed p ~latency:(us 100) ~gap:(us 40) 100 in
  let after = feed p ~latency:(ms 4) ~gap:(us 40) 200 in
  let trace = before @ after in
  check_bool
    (Printf.sprintf "at most one direction change across the step (saw %d)"
       (direction_changes trace))
    true
    (direction_changes trace <= 1);
  (* And a steady tail: the last 50 observations move K at most once. *)
  let tail =
    List.filteri (fun i _ -> i >= List.length trace - 50) trace
  in
  let distinct = List.sort_uniq compare tail in
  check_bool "steady tail" true (List.length distinct <= 2)

let test_adaptive_leap_high_water () =
  let p = K_policy.make (K_policy.adaptive ~initial_k:10 ()) in
  check_int "initial leap" 20 (K_policy.leap p);
  ignore (feed p ~latency:(ms 4) ~gap:(us 40) 100);
  let k_now = K_policy.current p in
  check_bool "k rose" true (k_now > 10);
  check_int "leap covers the high water" (2 * k_now) (K_policy.leap p);
  (* A durable SAVE restarts the lag window at the current K; the
     high-water mark must not decay below it. *)
  K_policy.note_durable p;
  check_int "leap after durable" (2 * k_now) (K_policy.leap p);
  check_bool "max_leap bounds leap" true
    (K_policy.leap p <= K_policy.max_leap p)

let test_adaptive_validation () =
  check_bool "alpha > 1 rejected" true
    (match K_policy.adaptive ~alpha:1.5 ~initial_k:8 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "floor > ceiling rejected" true
    (match K_policy.adaptive ~floor:100 ~ceiling:10 ~initial_k:8 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Stealth planners *)

let plan_of name =
  let f =
    match name with
    | `Save_drop -> Resets_attack.Stealth.save_window_drop
    | `Storm -> Resets_attack.Stealth.reset_storm
    | `Jam -> Resets_attack.Stealth.recovery_jam
  in
  f ~from:(ms 5) ~horizon:(ms 60) ~k:25 ~message_gap:(us 40)
    ~save_latency:(us 100) ~resets:3 ~downtime:(us 500)

let test_stealth_deterministic () =
  List.iter
    (fun name ->
      let a = plan_of name and b = plan_of name in
      check_bool "same inputs, same plan" true (a = b))
    [ `Save_drop; `Storm; `Jam ]

let test_stealth_shape () =
  List.iter
    (fun name ->
      let p = plan_of name in
      check_int "forced resets as requested" 3
        (List.length p.Resets_attack.Stealth.resets);
      List.iter
        (fun (r : Resets_attack.Stealth.forced_reset) ->
          check_bool "reset within [from, horizon)" true
            Time.(ms 5 <= r.at && r.at < ms 60))
        p.Resets_attack.Stealth.resets;
      List.iter
        (fun (j : Resets_attack.Stealth.jam) ->
          check_bool "jam window ordered" true Time.(j.down < j.up);
          check_bool "jam within [from, horizon)" true
            Time.(ms 5 <= j.down && j.down < ms 60))
        p.Resets_attack.Stealth.jams)
    [ `Save_drop; `Storm; `Jam ]

(* ------------------------------------------------------------------ *)
(* Paired-oracle runs *)

let scenario ?(attack = Harness.No_attack) ?(adaptive = false) seed =
  let policy =
    if adaptive then Some (K_policy.adaptive ~floor:5 ~initial_k:5 ())
    else None
  in
  {
    Harness.default with
    Harness.seed;
    horizon = ms 10;
    message_gap = us 40;
    protocol =
      Protocol.save_fetch ?policy_p:policy ?policy_q:policy ~kp:5 ~kq:5
        ~save_latency:(us 100) ();
    resets =
      Resets_workload.Reset_schedule.single ~at:(ms 3) ~downtime:(us 500)
        Resets_workload.Reset_schedule.Sender;
    attack;
    monitor = true;
  }

(* Attack-free, the primary IS the oracle: the paired run must be
   bit-identical on every protocol observable and report ratio 1. *)
let paired_identity_attack_free =
  QCheck.Test.make ~name:"attack-free paired run is bit-identical, ratio 1.0"
    ~count:25
    QCheck.(pair small_nat bool)
    (fun (seed, adaptive) ->
      let deg = Harness.run_paired (scenario ~adaptive (seed + 1)) in
      let p = deg.Harness.primary and o = deg.Harness.oracle in
      deg.Harness.goodput_ratio = 1.0
      && p.Harness.sender_next_seq = o.Harness.sender_next_seq
      && p.Harness.receiver_edge = o.Harness.receiver_edge
      && p.Harness.metrics.Metrics.delivered = o.Harness.metrics.Metrics.delivered
      && p.Harness.saves_completed_p = o.Harness.saves_completed_p
      && p.Harness.saves_completed_q = o.Harness.saves_completed_q
      && p.Harness.metrics.Metrics.oracle_delivered
         = o.Harness.metrics.Metrics.delivered
           - o.Harness.metrics.Metrics.duplicate_deliveries)

let test_paired_stealth_attack_degrades () =
  let attack =
    Harness.Stealth_save_drop
      { from = ms 2; resets = 2; downtime = us 500 }
  in
  let deg = Harness.run_paired (scenario ~attack 7) in
  check_bool "attack costs goodput" true (deg.Harness.goodput_ratio < 1.0);
  check_bool "ratio stays sane" true (deg.Harness.goodput_ratio >= 0.0);
  (* The stealth family injects nothing: on a clean disk the monitor
     stays silent even while goodput drops. *)
  check_int "safety-clean" 0 (List.length deg.Harness.primary.Harness.violations)

let test_effective_resets_merge () =
  let attack =
    Harness.Stealth_reset_storm { from = ms 2; resets = 2; downtime = us 500 }
  in
  let s = scenario ~attack 7 in
  let merged = Harness.effective_resets s in
  check_int "scheduled + forced" (List.length s.Harness.resets + 2)
    (List.length merged);
  let s0 = scenario 7 in
  check_bool "non-stealth schedule untouched" true
    (Harness.effective_resets s0 == s0.Harness.resets)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "policy"
    [
      ( "k_of_rates",
        [
          Alcotest.test_case "paper example" `Quick test_k_of_rates_paper_example;
          Alcotest.test_case "validation" `Quick test_k_of_rates_invalid;
        ] );
      ( "static",
        [
          Alcotest.test_case "inert plumbing" `Quick test_static_is_inert;
          Alcotest.test_case "validation" `Quick test_static_validation;
          Alcotest.test_case "model leap = code leap (K = 1..6)" `Quick
            test_model_leap_is_code_leap;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "converges above floor" `Quick
            test_adaptive_converges_above_floor;
          Alcotest.test_case "no oscillation on a latency step" `Quick
            test_adaptive_no_oscillation_on_step;
          Alcotest.test_case "leap high water" `Quick test_adaptive_leap_high_water;
          Alcotest.test_case "validation" `Quick test_adaptive_validation;
        ] );
      ( "stealth",
        [
          Alcotest.test_case "planners deterministic" `Quick test_stealth_deterministic;
          Alcotest.test_case "plan shape" `Quick test_stealth_shape;
        ] );
      ( "paired",
        [
          qt paired_identity_attack_free;
          Alcotest.test_case "stealth degrades, safely" `Quick
            test_paired_stealth_attack_degrades;
          Alcotest.test_case "effective resets merge" `Quick
            test_effective_resets_merge;
        ] );
    ]
