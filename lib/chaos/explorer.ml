(* Chaos explorer: random fault schedules, an invariant oracle, and a
   greedy shrinker. See the .mli for the model. *)

open Resets_util
open Resets_sim
open Resets_persist
open Resets_core
open Resets_workload

(* ------------------------------------------------------------------ *)
(* Fault schedules *)

type schedule = {
  seed : int;
  horizon : Time.t;
  resets : Reset_schedule.t;
  link_faults : Link.faults;
  disk_faults : Faults.spec;
  attack : Harness.attack;
}

type config = {
  seeds : int;
  seed_base : int;
  horizon : Time.t;
  weak_leap : bool;
  max_shrink_runs : int;
  stealth : bool;
  min_goodput : float;
}

let default_config =
  {
    seeds = 50;
    seed_base = 1;
    horizon = Time.of_ms 50;
    weak_leap = false;
    max_shrink_runs = 200;
    stealth = false;
    min_goodput = 0.6;
  }

(* Everything is drawn from a [Prng.keyed] stream distinct from the
   harness's own master stream for the same seed, so schedule shape and
   in-run randomness are independent. *)
let generator_stream = 0xC4A05

let time_in prng ~lo ~hi =
  let lo = Time.to_ns lo and hi = Time.to_ns hi in
  let span = Int64.to_int (Int64.sub hi lo) in
  if span <= 0 then Time.of_ns lo
  else Time.of_ns (Int64.add lo (Int64.of_int (Prng.int prng (span + 1))))

let generate config index =
  let seed = config.seed_base + index in
  let prng = Prng.keyed ~seed ~stream:generator_stream in
  let horizon = config.horizon in
  (* Resets: Poisson mixed-target strikes, expected count 1..5 over the
     horizon, downtimes 0.5–3 ms. *)
  let mtbf = Time.of_ns (Int64.div (Time.to_ns horizon) (Int64.of_int (1 + Prng.int prng 5))) in
  let resets =
    Reset_schedule.random_mixed ~mtbf ~horizon
      ~min_downtime:(Time.of_us 500) ~max_downtime:(Time.of_ms 3)
      ~both_prob:0.25 ~prng ()
  in
  (* Link faults: half the schedules stress the wire. *)
  let link_faults =
    if Prng.bool prng then Link.no_faults
    else
      let burst =
        if Prng.bernoulli prng 0.4 then
          Some
            Link.
              {
                p_gb = 0.002 +. Prng.float prng 0.01;
                p_bg = 0.05 +. Prng.float prng 0.3;
                good_loss = 0.;
                bad_loss = 0.5 +. Prng.float prng 0.5;
              }
        else None
      in
      Link.
        {
          loss_prob = Prng.float prng 0.05;
          dup_prob = Prng.float prng 0.03;
          reorder_prob = Prng.float prng 0.05;
          reorder_delay = time_in prng ~lo:(Time.of_us 20) ~hi:(Time.of_us 200);
          burst;
        }
  in
  (* Disk faults: most schedules stress the store (the new surface). *)
  let disk_faults =
    if Prng.bernoulli prng 0.25 then Faults.none
    else
      Faults.
        {
          write_fail_prob = Prng.float prng 0.3;
          torn_prob = Prng.float prng 0.3;
          read_corrupt_prob = Prng.float prng 0.3;
          read_stale_prob = Prng.float prng 0.3;
          latency_factor = 1.0;
        }
  in
  (* Replay adversary: biased towards replay-all strikes landing after
     the first reset has had a chance to recover. *)
  let attack =
    let at = time_in prng ~lo:(Time.of_ns (Int64.div (Time.to_ns horizon) 4L)) ~hi:horizon in
    match Prng.int prng 10 with
    | 0 | 1 | 2 -> Harness.No_attack
    | 3 | 4 | 5 | 6 -> Harness.Replay_all_at at
    | 7 | 8 -> Harness.Wedge_at at
    | _ -> Harness.Flood { start = at; gap = Time.of_us 40 }
  in
  (* Stealth mode redraws the adversary from the goodput-degradation
     family and slows the disk so the static cadence can actually fall
     behind. The extra PRNG draws are gated behind the flag: stock
     schedule streams are byte-for-byte what they were before the
     stealth family existed. *)
  let disk_faults, attack =
    if not config.stealth then (disk_faults, attack)
    else begin
      let latency_factor = 1.5 +. Prng.float prng 4.5 in
      let disk_faults = { disk_faults with Faults.latency_factor } in
      let from =
        time_in prng ~lo:(Time.of_ms 2)
          ~hi:(Time.of_ns (Int64.div (Time.to_ns horizon) 2L))
      in
      let n = 1 + Prng.int prng 3 in
      let downtime = time_in prng ~lo:(Time.of_us 200) ~hi:(Time.of_ms 2) in
      let attack =
        match Prng.int prng 3 with
        | 0 -> Harness.Stealth_save_drop { from; resets = n; downtime }
        | 1 -> Harness.Stealth_reset_storm { from; resets = n; downtime }
        | _ -> Harness.Stealth_recovery_jam { from; resets = n; downtime }
      in
      (disk_faults, attack)
    end
  in
  { seed; horizon; resets; link_faults; disk_faults; attack }

(* ------------------------------------------------------------------ *)
(* Oracle *)

let scenario_of config sched =
  let protocol =
    (* Stock: the robust (bounded-slide) receiver with the paper's 2K
       leap — sound even under burst loss, where E11 shows the plain
       receiver's durable edge can legitimately fall more than 2K
       behind. Weak: leap K and no bounded-slide guard (the guard
       exists precisely to make small leaps safe) — the unsound wakeup
       the explorer must catch. *)
    if config.weak_leap then
      Protocol.save_fetch ~kp:25 ~kq:25
        ~policy_q:(K_policy.static ~leap:25 25) ()
    else Protocol.save_fetch ~robust_receiver:true ~kp:25 ~kq:25 ()
  in
  {
    Harness.default with
    Harness.seed = sched.seed;
    horizon = sched.horizon;
    protocol;
    resets = sched.resets;
    faults = sched.link_faults;
    disk_faults = sched.disk_faults;
    attack = sched.attack;
    monitor = true;
  }

let run_schedule config sched = Harness.run (scenario_of config sched)

(* What a schedule is judged by. Invariant violations always count; in
   stealth mode the schedule is additionally run paired against its
   attack-free twin, and losing more goodput than [min_goodput]
   tolerates becomes a synthetic "goodput-degraded" record — so the
   shrinker minimizes towards a degradation threshold exactly as it
   does towards a safety breach. The (primary) run's metrics come
   along for the outcome's recovery counters. *)
let judge config sched =
  if not config.stealth then
    let r = run_schedule config sched in
    (r.Harness.violations, r.Harness.metrics)
  else begin
    let deg = Harness.run_paired (scenario_of config sched) in
    let primary = deg.Harness.primary in
    let degraded =
      if deg.Harness.goodput_ratio < config.min_goodput then
        [
          {
            Invariant.invariant = "goodput-degraded";
            at = sched.horizon;
            detail =
              Printf.sprintf "goodput %.3f of attack-free oracle, floor %.3f"
                deg.Harness.goodput_ratio config.min_goodput;
          };
        ]
      else []
    in
    (primary.Harness.violations @ degraded, primary.Harness.metrics)
  end

let violations_of config sched = fst (judge config sched)

(* ------------------------------------------------------------------ *)
(* Shrinking *)

let no_disk_field f (s : Faults.spec) =
  let open Faults in
  match f with
  | `Write -> { s with write_fail_prob = 0. }
  | `Torn -> { s with torn_prob = 0. }
  | `Corrupt -> { s with read_corrupt_prob = 0. }
  | `Stale -> { s with read_stale_prob = 0. }

let drop_nth n l = List.filteri (fun i _ -> i <> n) l

let halve_downtime (ev : Reset_schedule.event) =
  {
    ev with
    Reset_schedule.downtime =
      Time.of_ns (Int64.div (Time.to_ns ev.Reset_schedule.downtime) 2L);
  }

(* Candidate simplifications, each strictly smaller than [sched] by
   the lexicographic measure (resets, attack, fault knobs, downtime
   mass, horizon) — so greedy acceptance terminates. *)
let candidates sched ~first_violation_at =
  let dropped_resets =
    List.mapi (fun i _ -> { sched with resets = drop_nth i sched.resets })
      sched.resets
  in
  let no_attack =
    if sched.attack <> Harness.No_attack then
      [ { sched with attack = Harness.No_attack } ]
    else []
  in
  let link_zeroed =
    let f = sched.link_faults in
    let open Link in
    (if f.loss_prob > 0. then
       [ { sched with link_faults = { f with loss_prob = 0. } } ]
     else [])
    @ (if f.dup_prob > 0. then
         [ { sched with link_faults = { f with dup_prob = 0. } } ]
       else [])
    @ (if f.reorder_prob > 0. then
         [ { sched with link_faults = { f with reorder_prob = 0. } } ]
       else [])
    @
    if f.burst <> None then
      [ { sched with link_faults = { f with burst = None } } ]
    else []
  in
  let disk_zeroed =
    let s = sched.disk_faults in
    List.filter_map
      (fun (tag, nonzero) ->
        if nonzero then
          Some { sched with disk_faults = no_disk_field tag s }
        else None)
      [
        (`Write, s.Faults.write_fail_prob > 0.);
        (`Torn, s.Faults.torn_prob > 0.);
        (`Corrupt, s.Faults.read_corrupt_prob > 0.);
        (`Stale, s.Faults.read_stale_prob > 0.);
      ]
  in
  let shorter_downtimes =
    if
      List.exists
        (fun (ev : Reset_schedule.event) ->
          Time.(Time.of_us 100 < ev.Reset_schedule.downtime))
        sched.resets
    then [ { sched with resets = List.map halve_downtime sched.resets } ]
    else []
  in
  let truncated =
    (* Nothing after the first violation matters; cut the horizon just
       past it. *)
    match first_violation_at with
    | Some at ->
      let cut = Time.add at (Time.of_ms 1) in
      if Time.(cut < sched.horizon) then [ { sched with horizon = cut } ]
      else []
    | None -> []
  in
  (* Stealth-specific moves: shave one forced reset off the plan, and
     relax the slowed disk halfway back towards nominal — both strictly
     smaller, so the minimal schedule pins the degradation threshold. *)
  let fewer_forced_resets =
    match sched.attack with
    | Harness.Stealth_save_drop ({ resets; _ } as a) when resets > 1 ->
      [ { sched with attack = Harness.Stealth_save_drop { a with resets = resets - 1 } } ]
    | Harness.Stealth_reset_storm ({ resets; _ } as a) when resets > 1 ->
      [ { sched with attack = Harness.Stealth_reset_storm { a with resets = resets - 1 } } ]
    | Harness.Stealth_recovery_jam ({ resets; _ } as a) when resets > 1 ->
      [ { sched with attack = Harness.Stealth_recovery_jam { a with resets = resets - 1 } } ]
    | _ -> []
  in
  let faster_disk =
    let f = sched.disk_faults.Faults.latency_factor in
    if f > 1.0 then
      let f' = if f <= 1.25 then 1.0 else 1.0 +. ((f -. 1.0) /. 2.0) in
      [
        {
          sched with
          disk_faults =
            { sched.disk_faults with Faults.latency_factor = f' };
        };
      ]
    else []
  in
  dropped_resets @ no_attack @ fewer_forced_resets @ link_zeroed @ disk_zeroed
  @ faster_disk @ shorter_downtimes @ truncated

type shrink_outcome = {
  minimal : schedule;
  violations : Invariant.violation list;  (** of the minimal schedule *)
  shrink_runs : int;  (** harness runs the shrinker spent *)
}

let shrink config sched =
  let runs = ref 0 in
  let try_run s =
    incr runs;
    violations_of config s
  in
  let rec loop sched violations =
    if !runs >= config.max_shrink_runs then { minimal = sched; violations; shrink_runs = !runs }
    else begin
      let first_violation_at =
        match violations with
        | [] -> None
        | v :: _ -> Some v.Invariant.at
      in
      let rec first_passing = function
        | [] -> None
        | cand :: rest ->
          if !runs >= config.max_shrink_runs then None
          else begin
            match try_run cand with
            | [] -> first_passing rest
            | vs -> Some (cand, vs)
          end
      in
      match first_passing (candidates sched ~first_violation_at) with
      | Some (smaller, vs) -> loop smaller vs
      | None -> { minimal = sched; violations; shrink_runs = !runs }
    end
  in
  loop sched (violations_of config sched)

(* ------------------------------------------------------------------ *)
(* Batch exploration *)

type outcome = {
  schedule : schedule;
  violation_count : int;
  first_violation : Invariant.violation option;
  save_failures : int;
  save_retries : int;
  fetch_failures : int;
  sends_stalled : int;
  degraded_reestablish : int;
}

type report = {
  config : config;
  outcomes : outcome list;  (** one per seed, seed order *)
  violating_seeds : int list;
  shrunk : shrink_outcome option;  (** for the first violating seed *)
  replay_identical : bool;
      (** the minimal schedule re-ran to the identical violation list *)
  total_runs : int;
}

let violation_equal (a : Invariant.violation) (b : Invariant.violation) =
  a.Invariant.invariant = b.Invariant.invariant
  && Time.equal a.Invariant.at b.Invariant.at
  && a.Invariant.detail = b.Invariant.detail

let explore ?(progress = fun _ -> ()) config =
  let total_runs = ref 0 in
  let outcomes =
    List.init config.seeds (fun i ->
        let sched = generate config i in
        incr total_runs;
        let violations, (m : Metrics.t) = judge config sched in
        progress (i, List.length violations);
        {
          schedule = sched;
          violation_count = List.length violations;
          first_violation =
            (match violations with [] -> None | v :: _ -> Some v);
          save_failures = m.Metrics.save_failures;
          save_retries = m.Metrics.save_retries;
          fetch_failures = m.Metrics.fetch_failures;
          sends_stalled = m.Metrics.sends_stalled;
          degraded_reestablish = m.Metrics.degraded_reestablish;
        })
  in
  let violating_seeds =
    List.filter_map
      (fun o -> if o.violation_count > 0 then Some o.schedule.seed else None)
      outcomes
  in
  let shrunk, replay_identical =
    match
      List.find_opt (fun o -> o.violation_count > 0) outcomes
    with
    | None -> (None, true)
    | Some o ->
      let s = shrink config o.schedule in
      total_runs := !total_runs + s.shrink_runs + 1;
      (* Determinism proof: the minimal schedule must reproduce its
         violation list exactly on a fresh run. *)
      let again = violations_of config s.minimal in
      ( Some s,
        List.length again = List.length s.violations
        && List.for_all2 violation_equal again s.violations )
  in
  {
    config;
    outcomes;
    violating_seeds;
    shrunk;
    replay_identical;
    total_runs = !total_runs;
  }

(* ------------------------------------------------------------------ *)
(* Serialization *)

let time_json t = Json.Float (Time.to_sec t *. 1e6)

let attack_to_json = function
  | Harness.No_attack -> Json.Obj [ ("kind", Json.String "none") ]
  | Harness.Replay_all_at at ->
    Json.Obj [ ("kind", Json.String "replay-all"); ("at_us", time_json at) ]
  | Harness.Wedge_at at ->
    Json.Obj [ ("kind", Json.String "wedge"); ("at_us", time_json at) ]
  | Harness.Flood { start; gap } ->
    Json.Obj
      [
        ("kind", Json.String "flood");
        ("at_us", time_json start);
        ("gap_us", time_json gap);
      ]
  | Harness.Stealth_save_drop { from; resets; downtime } ->
    Json.Obj
      [
        ("kind", Json.String "stealth-save-drop");
        ("from_us", time_json from);
        ("resets", Json.Int resets);
        ("downtime_us", time_json downtime);
      ]
  | Harness.Stealth_reset_storm { from; resets; downtime } ->
    Json.Obj
      [
        ("kind", Json.String "stealth-reset-storm");
        ("from_us", time_json from);
        ("resets", Json.Int resets);
        ("downtime_us", time_json downtime);
      ]
  | Harness.Stealth_recovery_jam { from; resets; downtime } ->
    Json.Obj
      [
        ("kind", Json.String "stealth-recovery-jam");
        ("from_us", time_json from);
        ("resets", Json.Int resets);
        ("downtime_us", time_json downtime);
      ]

let schedule_to_json s =
  Json.Obj
    [
      ("seed", Json.Int s.seed);
      ("horizon_us", time_json s.horizon);
      ( "resets",
        Json.List
          (List.map
             (fun (ev : Reset_schedule.event) ->
               Json.Obj
                 [
                   ("at_us", time_json ev.Reset_schedule.at);
                   ( "target",
                     Json.String
                       (match ev.Reset_schedule.target with
                       | Reset_schedule.Sender -> "sender"
                       | Reset_schedule.Receiver -> "receiver") );
                   ("downtime_us", time_json ev.Reset_schedule.downtime);
                 ])
             s.resets) );
      ( "link_faults",
        Json.Obj
          ([
             ("loss_prob", Json.Float s.link_faults.Link.loss_prob);
             ("dup_prob", Json.Float s.link_faults.Link.dup_prob);
             ("reorder_prob", Json.Float s.link_faults.Link.reorder_prob);
             ("reorder_delay_us", time_json s.link_faults.Link.reorder_delay);
           ]
          @
          match s.link_faults.Link.burst with
          | None -> []
          | Some b ->
            [
              ( "burst",
                Json.Obj
                  [
                    ("p_gb", Json.Float b.Link.p_gb);
                    ("p_bg", Json.Float b.Link.p_bg);
                    ("good_loss", Json.Float b.Link.good_loss);
                    ("bad_loss", Json.Float b.Link.bad_loss);
                  ] );
            ]) );
      ( "disk_faults",
        Json.Obj
          [
            ( "write_fail_prob",
              Json.Float s.disk_faults.Faults.write_fail_prob );
            ("torn_prob", Json.Float s.disk_faults.Faults.torn_prob);
            ( "read_corrupt_prob",
              Json.Float s.disk_faults.Faults.read_corrupt_prob );
            ( "read_stale_prob",
              Json.Float s.disk_faults.Faults.read_stale_prob );
            ( "latency_factor",
              Json.Float s.disk_faults.Faults.latency_factor );
          ] );
      ("attack", attack_to_json s.attack);
    ]

let report_to_json r =
  Json.Obj
    [
      ( "config",
        Json.Obj
          [
            ("seeds", Json.Int r.config.seeds);
            ("seed_base", Json.Int r.config.seed_base);
            ("horizon_us", time_json r.config.horizon);
            ("weak_leap", Json.Bool r.config.weak_leap);
            ("save_retries", Json.Int Durable.retries);
            ("stealth", Json.Bool r.config.stealth);
            ("min_goodput", Json.Float r.config.min_goodput);
          ] );
      ("schedules_run", Json.Int (List.length r.outcomes));
      ( "violating_seeds",
        Json.List (List.map (fun s -> Json.Int s) r.violating_seeds) );
      ( "shrunk",
        match r.shrunk with
        | None -> Json.Null
        | Some s ->
          Json.Obj
            [
              ("schedule", schedule_to_json s.minimal);
              ( "violations",
                Json.List
                  (List.map Invariant.violation_to_json s.violations) );
              ("shrink_runs", Json.Int s.shrink_runs);
            ] );
      ("replay_identical", Json.Bool r.replay_identical);
      ("total_runs", Json.Int r.total_runs);
    ]
