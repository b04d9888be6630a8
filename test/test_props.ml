(* Randomized end-to-end properties.

   The Section 5 guarantees are claimed for parameters that respect
   Section 4's own rule K >= ceil(T_save / t_msg) (otherwise SAVEs are
   issued faster than they complete and durable state starves — the
   test suite checks that regime separately in test_harness ablations).
   The generator therefore draws K at or above k_min.

   Two subtleties the properties encode precisely:

   - the anti-replay guarantee is {e Discrimination} — no sequence
     number delivered twice. On a lossy link a replayed copy of a
     packet whose original was lost is legitimately delivered once, so
     "zero adversary-injected deliveries" is only required of loss-free
     links;
   - the receiver must be [robust] for adversarial schedules (the
     E11 jump corner); the paper's receiver gets the no-adversary
     property. *)

open Resets_sim
open Resets_core
open Resets_workload

let k_min_for gap_us = ((100 + gap_us - 1) / gap_us) (* 100 us save latency *)

let scenario_gen =
  QCheck.Gen.(
    let* seed = int_range 0 100_000 in
    let* gap_us = int_range 2 40 in
    let* kp_extra = int_range 0 30 in
    let* kq_extra = int_range 0 30 in
    let* n_resets = int_range 0 3 in
    let* reset_specs =
      list_repeat n_resets (pair (int_range 1000 8000) (pair bool (int_range 1 2000)))
    in
    let* attack_choice = int_range 0 2 in
    let* attack_at = int_range 1000 9000 in
    let* lossy = bool in
    let* loss = float_range 0.005 0.05 in
    let* traffic_choice = int_range 0 2 in
    let+ dup = float_range 0. 0.02 in
    let resets =
      List.map
        (fun (at_us, (is_sender, down_us)) ->
          {
            Reset_schedule.at = Time.of_us at_us;
            target =
              (if is_sender then Reset_schedule.Sender else Reset_schedule.Receiver);
            downtime = Time.of_us down_us;
          })
        reset_specs
      |> List.sort (fun a b -> Time.compare a.Reset_schedule.at b.Reset_schedule.at)
    in
    let attack =
      match attack_choice with
      | 0 -> Harness.No_attack
      | 1 -> Harness.Replay_all_at (Time.of_us attack_at)
      | _ -> Harness.Flood { start = Time.of_us attack_at; gap = Time.of_us 20 }
    in
    let faults =
      if lossy then { Link.no_faults with loss_prob = loss; dup_prob = dup }
      else Link.no_faults
    in
    let traffic =
      match traffic_choice with
      | 0 -> Harness.Constant
      | 1 -> Harness.Poisson
      | _ -> Harness.Bursty { burst_length = 200; off_duration = Time.of_ms 1 }
    in
    {
      Harness.default with
      seed;
      traffic;
      horizon = Time.of_ms 12;
      protocol =
        Protocol.save_fetch ~robust_receiver:true
          ~kp:(k_min_for gap_us + kp_extra)
          ~kq:(k_min_for gap_us + kq_extra)
          ();
      message_gap = Time.of_us gap_us;
      faults;
      resets;
      attack;
    })

let scenario_print (s : Harness.scenario) =
  Format.asprintf "seed=%d protocol=%a gap=%a loss=%.3f resets=[%s] attack=%s"
    s.Harness.seed Protocol.pp s.Harness.protocol Time.pp s.Harness.message_gap
    s.Harness.faults.Link.loss_prob
    (String.concat ";"
       (List.map
          (fun ev ->
            Format.asprintf "%s@%a+%a"
              (match ev.Reset_schedule.target with
              | Reset_schedule.Sender -> "p"
              | Reset_schedule.Receiver -> "q")
              Time.pp ev.Reset_schedule.at Time.pp ev.Reset_schedule.downtime)
          s.Harness.resets))
    (match s.Harness.attack with
    | Harness.No_attack -> "none"
    | Harness.Replay_all_at t -> Format.asprintf "replay-all@%a" Time.pp t
    | Harness.Wedge_at t -> Format.asprintf "wedge@%a" Time.pp t
    | Harness.Flood { start; _ } -> Format.asprintf "flood@%a" Time.pp start
    | Harness.Stealth_save_drop { from; _ } ->
      Format.asprintf "stealth-save-drop@%a" Time.pp from
    | Harness.Stealth_reset_storm { from; _ } ->
      Format.asprintf "stealth-reset-storm@%a" Time.pp from
    | Harness.Stealth_recovery_jam { from; _ } ->
      Format.asprintf "stealth-recovery-jam@%a" Time.pp from)

let scenario_arb = QCheck.make ~print:scenario_print scenario_gen

(* Discrimination under everything: resets, loss, duplication, replay
   floods. *)
let no_duplicate_delivery =
  QCheck.Test.make ~name:"discrimination under random faults (robust receiver)"
    ~count:60 scenario_arb
    (fun s ->
      let r = Harness.run s in
      r.Harness.metrics.Metrics.duplicate_deliveries = 0)

(* When every original reaches the receiver (loss-free link, receiver
   never down), no adversary-injected packet is ever delivered: the
   paper's headline statement in its strongest observable form. (With
   receiver downtime, a replayed copy of a packet that died at the dead
   host may be delivered once — that is a first delivery, not a replay
   acceptance; Discrimination above covers those runs.) *)
let no_replay_accepted_lossfree =
  QCheck.Test.make ~name:"zero replay acceptance when originals all arrive" ~count:60
    scenario_arb
    (fun s ->
      let s =
        {
          s with
          Harness.faults = Link.no_faults;
          resets =
            List.filter
              (fun ev -> ev.Reset_schedule.target = Reset_schedule.Sender)
              s.Harness.resets;
        }
      in
      let r = Harness.run s in
      r.Harness.metrics.Metrics.replay_accepted = 0)

(* The paper's own (non-robust) receiver: safe whenever there is no
   adversary, under arbitrary resets and loss. *)
let paper_receiver_safe_without_adversary =
  QCheck.Test.make ~name:"paper receiver safe without adversary" ~count:60 scenario_arb
    (fun s ->
      let s =
        {
          s with
          Harness.attack = Harness.No_attack;
          protocol =
            (match s.Harness.protocol with
            | Protocol.Save_fetch { sender; receiver; wakeup_buffer; _ } ->
              Protocol.Save_fetch
                { sender; receiver; robust_receiver = false; wakeup_buffer }
            | (Protocol.Volatile | Protocol.Reestablish _) as p -> p);
        }
      in
      let r = Harness.run s in
      r.Harness.metrics.Metrics.duplicate_deliveries = 0)

(* The sender never reuses a sequence number — at constant rate, where
   K >= k_min is exactly the paper's precondition. (Variable-rate
   traffic needs K sized to the PEAK rate — the paper's own wording is
   "the maximum number of messages that can be sent during the
   execution time of SAVE" — otherwise a burst can supersede an
   in-flight SAVE and leave durable state 2K behind; E13 measures
   this.) *)
let sender_never_reuses =
  QCheck.Test.make ~name:"sender never reuses sequence numbers (constant rate)"
    ~count:60 scenario_arb
    (fun s ->
      let s = { s with Harness.traffic = Harness.Constant } in
      let r = Harness.run s in
      r.Harness.metrics.Metrics.reused_seqnos = 0)

(* Skipped numbers stay within the per-reset bound of Theorem (i). *)
let skip_bound =
  QCheck.Test.make ~name:"skipped numbers <= p_resets * 2Kp" ~count:60 scenario_arb
    (fun s ->
      let s = { s with Harness.traffic = Harness.Constant } in
      let r = Harness.run s in
      let kp =
        match s.Harness.protocol with
        | Protocol.Save_fetch { sender; _ } ->
          K_policy.bound_of_mode sender.Protocol.policy
        | Protocol.Volatile | Protocol.Reestablish _ -> 0
      in
      r.Harness.metrics.Metrics.skipped_seqnos
      <= r.Harness.metrics.Metrics.p_resets * Analysis.max_lost_seqnos ~kp)

(* Determinism: running the same scenario twice gives identical
   metrics. *)
let determinism =
  QCheck.Test.make ~name:"harness is deterministic" ~count:20 scenario_arb (fun s ->
      let a = Harness.run s and b = Harness.run s in
      a.Harness.metrics.Metrics.sent = b.Harness.metrics.Metrics.sent
      && a.Harness.metrics.Metrics.delivered = b.Harness.metrics.Metrics.delivered
      && a.Harness.metrics.Metrics.fresh_rejected
         = b.Harness.metrics.Metrics.fresh_rejected
      && a.Harness.receiver_edge = b.Harness.receiver_edge)

(* ------------------------------------------------------------------ *)
(* PRNG stream independence. The sharded simulation and the daemon key
   per-SA generators by index; the whole determinism story rests on
   distinct streams not echoing each other. These are sanity bounds on
   "independent-looking", not statistical test batteries: two truly
   independent 64-bit streams collide at any position with probability
   ~2^-64, so a single positional match across a handful of draws is
   already overwhelming evidence of coupling. *)

let draws g n = List.init n (fun _ -> Resets_util.Prng.next_int64 g)

let positional_matches xs ys =
  List.fold_left2 (fun acc x y -> if Int64.equal x y then acc + 1 else acc)
    0 xs ys

let prng_keyed_streams_independent =
  QCheck.Test.make ~name:"keyed streams pairwise independent-looking"
    ~count:100
    QCheck.(triple small_nat small_nat (int_bound 1_000_000))
    (fun (i, j, seed) ->
      QCheck.assume (i <> j);
      let a = draws (Resets_util.Prng.keyed ~seed ~stream:i) 64 in
      let b = draws (Resets_util.Prng.keyed ~seed ~stream:j) 64 in
      positional_matches a b = 0)

let prng_keyed_pure_function_of_pair =
  QCheck.Test.make ~name:"keyed stream is a pure function of (seed, stream)"
    ~count:100
    QCheck.(pair small_nat (int_bound 1_000_000))
    (fun (i, seed) ->
      let a = draws (Resets_util.Prng.keyed ~seed ~stream:i) 16 in
      let b = draws (Resets_util.Prng.keyed ~seed ~stream:i) 16 in
      List.for_all2 Int64.equal a b)

let prng_split_streams_independent =
  QCheck.Test.make ~name:"split streams independent of parent and siblings"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let parent = Resets_util.Prng.create seed in
      let c1 = Resets_util.Prng.split parent in
      let c2 = Resets_util.Prng.split parent in
      let a = draws c1 64 and b = draws c2 64 in
      let p = draws parent 64 in
      positional_matches a b = 0
      && positional_matches a p = 0
      && positional_matches b p = 0)

let prng_seed_sensitivity =
  QCheck.Test.make ~name:"same stream index under different seeds diverges"
    ~count:100
    QCheck.(triple small_nat (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (i, s1, s2) ->
      QCheck.assume (s1 <> s2);
      let a = draws (Resets_util.Prng.keyed ~seed:s1 ~stream:i) 64 in
      let b = draws (Resets_util.Prng.keyed ~seed:s2 ~stream:i) 64 in
      positional_matches a b = 0)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "props"
    [
      ( "end-to-end",
        [
          qt no_duplicate_delivery;
          qt no_replay_accepted_lossfree;
          qt paper_receiver_safe_without_adversary;
          qt sender_never_reuses;
          qt skip_bound;
          qt determinism;
        ] );
      ( "prng",
        [
          qt prng_keyed_streams_independent;
          qt prng_keyed_pure_function_of_pair;
          qt prng_split_streams_independent;
          qt prng_seed_sensitivity;
        ] );
    ]
