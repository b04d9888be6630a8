open Resets_util
open Resets_sim
open Resets_persist
open Resets_ipsec
open Resets_workload

type traffic_model =
  | Constant
  | Poisson
  | Bursty of { burst_length : int; off_duration : Time.t }

(* The scenario vocabulary is a strict superset of the endpoint's
   replay attacks: the stealth family below is lowered by the harness
   itself (link jams + forced resets), not by the adversary tap. *)
type attack =
  | No_attack
  | Replay_all_at of Time.t
  | Wedge_at of Time.t
  | Flood of { start : Time.t; gap : Time.t }
  | Stealth_save_drop of { from : Time.t; resets : int; downtime : Time.t }
  | Stealth_reset_storm of { from : Time.t; resets : int; downtime : Time.t }
  | Stealth_recovery_jam of { from : Time.t; resets : int; downtime : Time.t }

type scenario = {
  seed : int;
  horizon : Time.t;
  protocol : Protocol.t;
  message_gap : Time.t;
  traffic : traffic_model;
  link_latency : Time.t;
  link_jitter : Time.t;
  faults : Link.faults;
  window : int;
  framing : Packet.framing;
  resets : Reset_schedule.t;
  attack : attack;
  sender_stop_at : Time.t option;
  keep_trace : bool;
  disk_faults : Sim_disk.Faults.spec;
      (* storage fault plan, applied to both endpoint disks *)
  monitor : bool; (* attach the online invariant monitor *)
}

let default =
  {
    seed = 42;
    horizon = Time.of_ms 100;
    protocol = Protocol.save_fetch ~kp:25 ~kq:25 ();
    message_gap = Time.of_us 4;
    traffic = Constant;
    link_latency = Time.of_us 10;
    link_jitter = Time.zero;
    faults = Link.no_faults;
    window = 64;
    framing = Packet.Seq64;
    resets = Reset_schedule.none;
    attack = No_attack;
    sender_stop_at = None;
    keep_trace = false;
    disk_faults = Sim_disk.Faults.none;
    monitor = false;
  }

type result = {
  metrics : Metrics.t;
  trace : Trace.t option;
  sender_next_seq : int;
  receiver_edge : int;
  saves_completed_p : int;
  saves_completed_q : int;
  saves_lost_p : int;
  saves_lost_q : int;
  saves_failed_p : int;
  saves_failed_q : int;
  fetches_corrupt_p : int;
  fetches_corrupt_q : int;
  link_sent : int;
  link_delivered : int;
  link_dropped : int;
  link_duplicated : int;
  link_reordered : int;
  adversary_injected : int;
  end_time : Time.t;
  violations : Invariant.violation list;
  effective_k_p : int;
  effective_k_q : int;
  k_adjustments_p : int;
  k_adjustments_q : int;
}

(* ------------------------------------------------------------------ *)
(* Stealth lowering.

   A stealth attack is pure data (Resets_attack.Stealth.plan): link-jam
   windows plus the sender resets the adversary provokes. The plan is
   computed from the protocol constants the adversary is assumed to
   know — the configured K (the adaptive policy's initial K; the
   adversary cannot see the online re-derivation), the message gap and
   the nominal SAVE latency. Everything is deterministic and PRNG-free,
   so a stealth-attacked run consumes exactly the random stream of its
   attack-free twin. *)

let endpoint_attack = function
  | No_attack | Stealth_save_drop _ | Stealth_reset_storm _
  | Stealth_recovery_jam _ ->
    Endpoint.No_attack
  | Replay_all_at at -> Endpoint.Replay_all_at at
  | Wedge_at at -> Endpoint.Wedge_at at
  | Flood { start; gap } -> Endpoint.Flood { start; gap }

let stealth_plan scenario =
  let k, save_latency =
    match scenario.protocol with
    | Protocol.Save_fetch { sender; _ } ->
      ( (match sender.Protocol.policy with
        | K_policy.Static { k; _ } -> k
        | K_policy.Adaptive { initial_k; _ } -> initial_k),
        sender.Protocol.save_latency )
    | Protocol.Volatile | Protocol.Reestablish _ ->
      (25, Protocol.default_save_latency)
  in
  let plan f ~from ~resets ~downtime =
    f ~from ~horizon:scenario.horizon ~k ~message_gap:scenario.message_gap
      ~save_latency ~resets ~downtime
  in
  match scenario.attack with
  | No_attack | Replay_all_at _ | Wedge_at _ | Flood _ ->
    Resets_attack.Stealth.no_plan
  | Stealth_save_drop { from; resets; downtime } ->
    plan Resets_attack.Stealth.save_window_drop ~from ~resets ~downtime
  | Stealth_reset_storm { from; resets; downtime } ->
    plan Resets_attack.Stealth.reset_storm ~from ~resets ~downtime
  | Stealth_recovery_jam { from; resets; downtime } ->
    plan Resets_attack.Stealth.recovery_jam ~from ~resets ~downtime

let effective_resets scenario =
  match (stealth_plan scenario).Resets_attack.Stealth.resets with
  | [] -> scenario.resets
  | forced ->
    Reset_schedule.merge scenario.resets
      (List.map
         (fun (r : Resets_attack.Stealth.forced_reset) ->
           {
             Reset_schedule.at = r.Resets_attack.Stealth.at;
             target = Reset_schedule.Sender;
             downtime = r.Resets_attack.Stealth.downtime;
           })
         forced)

let make_traffic scenario prng =
  match scenario.traffic with
  | Constant -> Traffic.constant ~gap:scenario.message_gap
  | Poisson -> Traffic.poisson ~mean_gap:scenario.message_gap ~prng
  | Bursty { burst_length; off_duration } ->
    Traffic.bursty ~on_gap:scenario.message_gap ~off_duration ~burst_length ~prng

let run scenario =
  let engine = Engine.create () in
  let master = Prng.create scenario.seed in
  let trace = if scenario.keep_trace then Some (Trace.create ()) else None in
  let metrics = Metrics.create () in
  (* Endpoint persistence per protocol. The concrete Sim_disk handles
     stay in scope alongside the Store.t views the endpoints hold:
     fault attachment and the end-of-run counters are disk-level
     concerns the abstract store deliberately does not expose. *)
  let persistence_p, persistence_q, disk_p, disk_q =
    match scenario.protocol with
    | Protocol.Save_fetch { sender; receiver; robust_receiver; wakeup_buffer } ->
      let disk_p =
        Sim_disk.create ?trace ~name:"disk.p" ~latency:sender.Protocol.save_latency
          engine
      in
      let disk_q =
        Sim_disk.create ?trace ~name:"disk.q" ~latency:receiver.Protocol.save_latency
          engine
      in
      let policy_p = K_policy.make sender.Protocol.policy in
      let policy_q = K_policy.make receiver.Protocol.policy in
      (* The SAVE-latency observation seam. Installed only for adaptive
         policies: a static run carries no observer at all, keeping it
         bit-for-bit the pre-policy-layer run. The observer is a pure
         reader either way (no events, no PRNG draws). *)
      if K_policy.is_adaptive policy_p then
        Sim_disk.set_latency_observer disk_p
          (K_policy.observe_save_latency policy_p);
      if K_policy.is_adaptive policy_q then
        Sim_disk.set_latency_observer disk_q
          (K_policy.observe_save_latency policy_q);
      ( Some
          Sender.
            {
              store = Sim_disk.store disk_p;
              key = "send_seq";
              policy = policy_p;
              trigger =
                (match sender.Protocol.save_timer with
                | None -> Sender.On_count
                | Some dt -> Sender.On_timer dt);
              retries = Durable.retries;
            },
        Some
          Receiver.
            {
              store = Sim_disk.store disk_q;
              key = "recv_edge";
              policy = policy_q;
              robust = robust_receiver;
              wakeup_buffer;
              retries = Durable.retries;
            },
        Some disk_p,
        Some disk_q )
    | Protocol.Volatile | Protocol.Reestablish _ -> (None, None, None, None)
  in
  (* The PRNG split order (link, traffic, ike) and the endpoint's
     internal construction order are part of the deterministic-replay
     contract: the committed BENCH artifacts were produced under it. *)
  let link_prng = Prng.split master in
  let traffic = make_traffic scenario (Prng.split master) in
  let endpoint =
    Endpoint.create ?trace ~framing:scenario.framing ~window:scenario.window
      ~faults:scenario.faults
      ~link_jitter:scenario.link_jitter ~link_prng ~spi:0x1001l
      ~secret:"harness-shared-secret" ~link_latency:scenario.link_latency
      ~traffic ~metrics ~sender_persistence:persistence_p
      ~receiver_persistence:persistence_q engine
  in
  let sender = Endpoint.sender endpoint in
  let receiver = Endpoint.receiver endpoint in
  let link = Endpoint.link endpoint in
  (* Disruption bookkeeping: reset time -> first delivery after it. *)
  let pending_disruptions = ref [] in
  Receiver.on_deliver receiver (fun ~seq:_ ~payload:_ ->
      match !pending_disruptions with
      | [] -> ()
      | pending ->
        let now = Engine.now engine in
        List.iter
          (fun at ->
            Stats.Sample.add metrics.Metrics.disruption_times
              (Time.to_sec (Time.diff now at)))
          pending;
        pending_disruptions := []);
  (* Re-establishment baseline: wakeup renegotiates a fresh SA. *)
  let ike_prng = Prng.split master in
  (* Storage fault plans. The splits are drawn unconditionally — after
     link/traffic/ike, so the master PRNG stream feeding fault-free
     scenarios is untouched and the committed artifacts replay
     byte-identically — and the plans are attached post-construction
     for the same reason. *)
  let disk_fault_prng_p = Prng.split master in
  let disk_fault_prng_q = Prng.split master in
  if not (Sim_disk.Faults.is_none scenario.disk_faults) then begin
    Option.iter
      (fun disk ->
        Sim_disk.set_faults disk
          (Sim_disk.Faults.create ~spec:scenario.disk_faults
             ~prng:disk_fault_prng_p))
      disk_p;
    Option.iter
      (fun disk ->
        Sim_disk.set_faults disk
          (Sim_disk.Faults.create ~spec:scenario.disk_faults
             ~prng:disk_fault_prng_q))
      disk_q
  end;
  let next_spi = ref 0x2000l in
  let reestablish ~cost ~on_installed =
    let spi = !next_spi in
    next_spi := Int32.add spi 1l;
    Endpoint.reestablish endpoint ~cost ~prng:ike_prng ~spi ~on_installed
  in
  let reestablish_wakeup ~cost ~on_ready () =
    reestablish ~cost ~on_installed:(fun () ->
        if Sender.is_down sender then Sender.wakeup sender ~on_ready ();
        if Receiver.is_down receiver then Receiver.wakeup receiver ~on_ready:Fun.id ())
  in
  (* Degraded recovery: when an endpoint exhausts its retry budget
     against a faulty store it abandons SAVE/FETCH and renegotiates a
     fresh SA — fresh keys, fresh sequence space, window at edge 0. *)
  let degrade_reestablish () =
    reestablish ~cost:Ike.default_cost ~on_installed:(fun () ->
        Endpoint.resume_fresh endpoint)
  in
  Sender.set_degrade_handler sender degrade_reestablish;
  Receiver.set_degrade_handler receiver degrade_reestablish;
  (* Invariant monitor: attached before any traffic so the counter
     baselines are the zero state. Pure observer — a monitored run is
     byte-identical to an unmonitored one. *)
  let monitor =
    if not scenario.monitor then None
    else
      let max_skip_per_reset =
        match persistence_p with
        | Some (p : Sender.persistence) -> Some (K_policy.max_leap p.Sender.policy)
        | None -> None
      in
      (* On a lossy link an injected copy of a dropped packet is a
         legitimate first delivery, not a replay violation. *)
      let check_replay =
        scenario.faults.Link.loss_prob = 0.
        && scenario.faults.Link.dup_prob = 0.
        && scenario.faults.Link.reorder_prob = 0.
        && scenario.faults.Link.burst = None
      in
      Some
        (Invariant.attach ?max_skip_per_reset ~check_replay ~sender
           ~receiver ~metrics engine)
  in
  (* Schedule the reset/wakeup fault events. *)
  let schedule_fault (ev : Reset_schedule.event) =
    let do_wakeup () =
      let on_ready () =
        Stats.Sample.add metrics.Metrics.recovery_times
          (Time.to_sec (Time.diff (Engine.now engine) ev.at))
      in
      match scenario.protocol with
      | Protocol.Reestablish { cost } -> reestablish_wakeup ~cost ~on_ready ()
      | Protocol.Save_fetch _ | Protocol.Volatile -> (
        match ev.target with
        | Reset_schedule.Sender ->
          if Sender.is_down sender then Sender.wakeup sender ~on_ready ()
        | Reset_schedule.Receiver ->
          if Receiver.is_down receiver then Receiver.wakeup receiver ~on_ready ())
    in
    let do_reset () =
      (match ev.target with
      | Reset_schedule.Sender -> Sender.reset sender
      | Reset_schedule.Receiver -> Receiver.reset receiver);
      pending_disruptions := ev.at :: !pending_disruptions;
      ignore (Engine.schedule_at engine ~at:(Time.add ev.at ev.downtime) do_wakeup)
    in
    ignore (Engine.schedule_at engine ~at:ev.at do_reset)
  in
  let all_resets = effective_resets scenario in
  List.iter schedule_fault all_resets;
  (* Schedule the adversary: the replay tap for the Section 3 attacks,
     link jams for the stealth family. A downed link drops everything
     sent through it and consumes no PRNG draw, so the jam windows
     leave the random stream untouched. *)
  Endpoint.schedule_attack endpoint ~message_gap:scenario.message_gap
    (endpoint_attack scenario.attack);
  List.iter
    (fun (j : Resets_attack.Stealth.jam) ->
      ignore
        (Engine.schedule_at engine ~at:j.Resets_attack.Stealth.down (fun () ->
             Link.set_up link false));
      ignore
        (Engine.schedule_at engine ~at:j.Resets_attack.Stealth.up (fun () ->
             Link.set_up link true)))
    (stealth_plan scenario).Resets_attack.Stealth.jams;
  Option.iter
    (fun at ->
      ignore (Engine.schedule_at engine ~at (fun () -> Sender.stop sender)))
    scenario.sender_stop_at;
  Sender.start sender;
  ignore (Engine.run ~until:scenario.horizon engine);
  let violations =
    match monitor with
    | None -> []
    | Some mon ->
      (* The wedged check only makes sense once every scheduled wakeup
         has had a chance to fire. *)
      let expect_up =
        List.for_all
          (fun (ev : Reset_schedule.event) ->
            Time.(Time.add ev.at ev.downtime < scenario.horizon))
          all_resets
      in
      Invariant.finish ~expect_up mon
  in
  let saves_of persistence_disk =
    match persistence_disk with
    | None -> (0, 0, 0, 0)
    | Some disk ->
      ( Sim_disk.saves_completed disk,
        Sim_disk.saves_lost disk,
        Sim_disk.saves_failed disk,
        Sim_disk.fetches_corrupt disk + Sim_disk.fetches_stale disk )
  in
  let saves_completed_p, saves_lost_p, saves_failed_p, fetches_corrupt_p =
    saves_of disk_p
  in
  let saves_completed_q, saves_lost_q, saves_failed_q, fetches_corrupt_q =
    saves_of disk_q
  in
  {
    metrics;
    trace;
    sender_next_seq = Sender.next_seq sender;
    receiver_edge = Receiver.right_edge receiver;
    saves_completed_p;
    saves_completed_q;
    saves_lost_p;
    saves_lost_q;
    saves_failed_p;
    saves_failed_q;
    fetches_corrupt_p;
    fetches_corrupt_q;
    link_sent = Link.sent link;
    link_delivered = Link.delivered link;
    link_dropped = Link.dropped link;
    link_duplicated = Link.duplicated link;
    link_reordered = Link.reordered link;
    adversary_injected = Endpoint.injected_count endpoint;
    end_time = Engine.now engine;
    violations;
    effective_k_p =
      (match persistence_p with
      | Some (p : Sender.persistence) -> K_policy.current p.Sender.policy
      | None -> 0);
    effective_k_q =
      (match persistence_q with
      | Some (q : Receiver.persistence) -> K_policy.current q.Receiver.policy
      | None -> 0);
    k_adjustments_p =
      (match persistence_p with
      | Some (p : Sender.persistence) -> K_policy.adjustments p.Sender.policy
      | None -> 0);
    k_adjustments_q =
      (match persistence_q with
      | Some (q : Receiver.persistence) -> K_policy.adjustments q.Receiver.policy
      | None -> 0);
  }

(* ------------------------------------------------------------------ *)
(* Paired runs: the goodput-vs-oracle degradation metric.

   The oracle is the same scenario replayed attack-free: same seed,
   same resets field, same fault plans — only the adversary removed.
   Because the stealth family is PRNG-free and carries its own forced
   resets, the oracle's random stream is identical and the ratio
   isolates exactly the attack's damage. *)

type degradation = {
  primary : result;
  oracle : result;
  goodput_ratio : float;
  disruption_delta_s : float;
  recovery_delta_s : float;
}

let run_paired scenario =
  let primary = run scenario in
  let oracle = run { scenario with attack = No_attack } in
  let oracle_delivered = Metrics.delivered_distinct oracle.metrics in
  let goodput_ratio =
    if oracle_delivered = 0 then 1.
    else
      float_of_int (Metrics.delivered_distinct primary.metrics)
      /. float_of_int oracle_delivered
  in
  primary.metrics.Metrics.oracle_delivered <- oracle_delivered;
  primary.metrics.Metrics.goodput_vs_oracle <- goodput_ratio;
  let mean s = if Stats.Sample.count s = 0 then 0. else Stats.Sample.mean s in
  {
    primary;
    oracle;
    goodput_ratio;
    disruption_delta_s =
      mean primary.metrics.Metrics.disruption_times
      -. mean oracle.metrics.Metrics.disruption_times;
    recovery_delta_s =
      mean primary.metrics.Metrics.recovery_times
      -. mean oracle.metrics.Metrics.recovery_times;
  }

let pp_violations ppf = function
  | [] -> ()
  | vs ->
    Format.fprintf ppf "@ violations=%d" (List.length vs);
    List.iter (fun v -> Format.fprintf ppf "@   %a" Invariant.pp_violation v) vs

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%a@ next_seq=%d edge=%d saves(p=%d,q=%d lost p=%d,q=%d)@ \
                      link sent=%d delivered=%d dropped=%d injected=%d t=%a%a@]"
    Metrics.pp_summary r.metrics r.sender_next_seq r.receiver_edge r.saves_completed_p
    r.saves_completed_q r.saves_lost_p r.saves_lost_q r.link_sent r.link_delivered
    r.link_dropped r.adversary_injected Time.pp r.end_time pp_violations
    r.violations
