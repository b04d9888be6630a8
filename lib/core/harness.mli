(** End-to-end experiment harness.

    Wires a sender, a lossy/reordering link, a replay adversary and a
    receiver on one simulated clock, injects resets per a schedule,
    runs to a horizon and reports metrics. Every experiment in
    EXPERIMENTS.md is a call to {!run} with a different {!scenario}. *)

(** How the sender spaces fresh messages (experiment E13 varies
    this to stress count- vs timer-triggered SAVE policies). *)
type traffic_model =
  | Constant  (** one message every [message_gap] *)
  | Poisson  (** exponential inter-arrival with mean [message_gap] *)
  | Bursty of { burst_length : int; off_duration : Resets_sim.Time.t }
      (** [burst_length] back-to-back messages at [message_gap]
          spacing, then silence for [off_duration] *)

(** The adversary. The first four are the Section 3 replay attacks
    (recorded ciphertexts re-injected through the {!Endpoint} tap);
    the [Stealth_*] family are the goodput-degradation adversaries of
    {!Resets_attack.Stealth}: safety-clean by construction (nothing is
    injected), they jam the link and force sender resets phase-locked
    to the persistence discipline's own cadence. The harness lowers
    them to deterministic link up/down events and extra entries in the
    effective reset schedule (see {!effective_resets}). *)
type attack =
  | No_attack  (** passive wire; nothing injected *)
  | Replay_all_at of Resets_sim.Time.t
      (** Section 3's first attack: replay everything captured, in
          order *)
  | Wedge_at of Resets_sim.Time.t
      (** Section 3's third attack: replay the newest capture to shove
          q's window ahead of p *)
  | Flood of { start : Resets_sim.Time.t; gap : Resets_sim.Time.t }
      (** sustained replay of the capture buffer *)
  | Stealth_save_drop of {
      from : Resets_sim.Time.t;
      resets : int;
      downtime : Resets_sim.Time.t;
    }
      (** jam the link during every predicted SAVE window, plus
          [resets] forced sender resets timed to lose in-flight SAVEs
          — {!Resets_attack.Stealth.save_window_drop} *)
  | Stealth_reset_storm of {
      from : Resets_sim.Time.t;
      resets : int;
      downtime : Resets_sim.Time.t;
    }
      (** [resets] forced sender resets at the worst phase of the SAVE
          cycle — {!Resets_attack.Stealth.reset_storm} *)
  | Stealth_recovery_jam of {
      from : Resets_sim.Time.t;
      resets : int;
      downtime : Resets_sim.Time.t;
    }
      (** forced resets followed by burst jamming phase-locked to each
          recovery — {!Resets_attack.Stealth.recovery_jam} *)

(** One experiment configuration. [default] is the paper's operating
    point; experiments override individual fields with record
    update syntax. *)
type scenario = {
  seed : int;  (** PRNG seed; the run is a pure function of it *)
  horizon : Resets_sim.Time.t;  (** simulated duration *)
  protocol : Protocol.t;
      (** counter-persistence discipline under test (SAVE/FETCH,
          reestablish, volatile, …) *)
  message_gap : Resets_sim.Time.t;  (** base inter-message spacing *)
  traffic : traffic_model;
  link_latency : Resets_sim.Time.t;  (** one-way propagation delay *)
  link_jitter : Resets_sim.Time.t;
      (** uniform extra delay in [0, jitter] — drives reordering *)
  faults : Resets_sim.Link.faults;  (** drop/duplicate probabilities *)
  window : int;  (** receiver anti-replay window width w (RFC 2401) *)
  framing : Resets_ipsec.Sa.framing;  (** ESP sequence-number encoding *)
  resets : Resets_workload.Reset_schedule.t;
      (** when each endpoint crashes and for how long *)
  attack : attack;
  sender_stop_at : Resets_sim.Time.t option;
      (** stop generating fresh traffic at this time (stages the
          Section 3 "p idle while the adversary replays" attacks) *)
  keep_trace : bool;
      (** retain the event ring for post-run inspection ([--trace-out]
          forces this on) *)
  disk_faults : Resets_persist.Faults.spec;
      (** storage fault plan (write failures, torn snapshots, corrupt or
          stale FETCHes), applied to both endpoint disks; the fault
          PRNGs are split from the master after link/traffic/ike, so
          fault-free runs are byte-identical to pre-fault-model ones *)
  monitor : bool;
      (** attach the online {!Invariant} monitor; its findings come
          back in [result.violations]. A pure observer: a monitored run
          is byte-identical to an unmonitored one *)
}

val default : scenario
(** The paper's operating point: 4 µs message gap, 100 µs SAVE latency
    (via {!Protocol.save_fetch} with Kp = Kq = 25), w = 64, clean 10 µs
    link, no resets, no attack, 100 ms horizon. *)

(** Everything observable after a run. Serialized to JSON by
    [Report.result_to_json] (the CLI's [--json] output). *)
type result = {
  metrics : Metrics.t;  (** the full counter set (see {!Metrics}) *)
  trace : Resets_sim.Trace.t option;
      (** event ring, present iff [keep_trace] was set *)
  sender_next_seq : int;  (** p's counter value at the horizon *)
  receiver_edge : int;  (** right edge of q's window at the horizon *)
  saves_completed_p : int;  (** persistent writes p finished *)
  saves_completed_q : int;  (** persistent writes q finished *)
  saves_lost_p : int;  (** SAVEs in flight when p was reset *)
  saves_lost_q : int;  (** SAVEs in flight when q was reset *)
  saves_failed_p : int;  (** SAVEs p's disk reported failed (faults) *)
  saves_failed_q : int;  (** SAVEs q's disk reported failed (faults) *)
  fetches_corrupt_p : int;
      (** checked FETCHes p's disk served corrupt or stale *)
  fetches_corrupt_q : int;
      (** checked FETCHes q's disk served corrupt or stale *)
  link_sent : int;  (** packets entering the link (incl. injected) *)
  link_delivered : int;  (** packets the link handed to q *)
  link_dropped : int;  (** packets the link lost (faults + downtime) *)
  link_duplicated : int;  (** packets the link delivered twice *)
  link_reordered : int;  (** packets the link delayed out of order *)
  adversary_injected : int;  (** replayed ciphertexts put on the wire *)
  end_time : Resets_sim.Time.t;  (** simulated clock at exit *)
  violations : Invariant.violation list;
      (** invariant breaches, detection order; always [[]] unless the
          scenario set [monitor] *)
  effective_k_p : int;
      (** [K_policy.current] of p's policy at the horizon — the
          configured K for static policies, the online-derived one for
          adaptive; 0 without persistence *)
  effective_k_q : int;  (** likewise for q *)
  k_adjustments_p : int;
      (** times p's adaptive policy moved K (0 for static) *)
  k_adjustments_q : int;  (** likewise for q *)
}

val effective_resets : scenario -> Resets_workload.Reset_schedule.t
(** The resets the run actually experiences: [scenario.resets] plus
    the forced sender resets a stealth attack carries. Identical to
    [scenario.resets] for non-stealth attacks. {!Convergence.check}
    scales the paper's 2K budgets by this schedule, not the raw
    field. *)

val run : scenario -> result
(** Deterministic for a given scenario (all randomness flows from
    [seed]). *)

(** A paired run: the scenario, and the same scenario replayed
    attack-free as an oracle. Because stealth attacks are PRNG-free
    and carry their own forced resets, the oracle consumes the
    identical random stream and the ratio isolates the attack's
    damage. *)
type degradation = {
  primary : result;  (** the attacked run, oracle fields filled in *)
  oracle : result;  (** the attack-free twin *)
  goodput_ratio : float;
      (** distinct deliveries, primary ÷ oracle; 1.0 when the oracle
          delivered nothing *)
  disruption_delta_s : float;
      (** mean reset→first-delivery time, primary − oracle, seconds *)
  recovery_delta_s : float;
      (** mean reset→endpoint-ready time, primary − oracle, seconds *)
}

val run_paired : scenario -> degradation
(** {!run} the scenario and its attack-free twin, then fill
    [primary.metrics.oracle_delivered] and [goodput_vs_oracle]. Under
    [No_attack] the two runs are bit-identical and the ratio is 1. *)

val pp_result : Format.formatter -> result -> unit
(** Human-readable run summary; the machine-readable twin is
    [Report.result_to_json]. *)
