(** Chaos explorer: randomized fault schedules, an invariant oracle,
    and a shrinking counterexample search.

    The paper proves convergence assuming a reliable store and bounded
    misbehaviour; the simulator now models much nastier worlds — resets
    on both hosts, correlated burst loss, duplication and reordering,
    transient write failures, torn snapshots, corrupt and stale
    FETCHes, and a replay adversary, all at once. The explorer samples
    that space: each {!schedule} is generated from a seed (a pure
    function of it), run through the unified {!Resets_core.Harness}
    datapath under the online {!Resets_core.Invariant} monitor, and any
    violation is {!shrink}ed — greedily dropping resets, disabling the
    adversary, zeroing fault probabilities, halving downtimes and
    truncating the horizon — to a minimal schedule that still violates,
    re-run once more to prove it replays identically.

    With the stock protocol (robust receiver, 2K leap) every schedule
    must come back clean; weakening the leap to K ({!config.weak_leap})
    re-creates the unsoundness the paper warns about, and the explorer
    finds and minimizes it. *)

open Resets_sim
open Resets_persist
open Resets_core
open Resets_workload

(** One complete fault plan for a run. Generated from a seed by
    {!generate}; every field is explicit so a shrunk schedule is
    self-describing and replayable. *)
type schedule = {
  seed : int;  (** harness seed (link/traffic/ike randomness) *)
  horizon : Time.t;
  resets : Reset_schedule.t;
  link_faults : Link.faults;
  disk_faults : Faults.spec;
  attack : Harness.attack;
}

type config = {
  seeds : int;  (** how many schedules to run *)
  seed_base : int;  (** schedule [i] uses seed [seed_base + i] *)
  horizon : Time.t;
  weak_leap : bool;
      (** weaken the receiver leap from the paper's 2K to K — the
          unsound configuration the explorer must catch *)
  max_shrink_runs : int;  (** harness-run budget for one shrink *)
  stealth : bool;
      (** draw adversaries from the stealth goodput-degradation family
          ({!Harness.attack}'s [Stealth_*]), slow the simulated disk by
          a drawn latency factor, and judge each schedule by a paired
          attack-free oracle run as well as the invariant monitor. The
          extra PRNG draws are gated behind this flag, so stock
          schedule streams are unchanged. *)
  min_goodput : float;
      (** stealth mode only: a schedule whose paired run delivers less
          than this fraction of its oracle's goodput counts as a
          (synthetic, ["goodput-degraded"]) violation — the shrinker
          then minimizes towards the degradation threshold *)
}

val default_config : config
(** 50 seeds from 1, 50 ms horizon, sound leap, 200 shrink runs,
    stealth off (goodput floor 0.6 when enabled). The recovery retry
    budget is {!Resets_core.Durable.retries}. *)

val generate : config -> int -> schedule
(** The [i]-th schedule — a pure function of [config.seed_base + i],
    drawn from a PRNG stream distinct from the harness's own. *)

val scenario_of : config -> schedule -> Harness.scenario
(** The harness scenario a schedule denotes (robust receiver, monitor
    on, leap per [config.weak_leap]). *)

val run_schedule : config -> schedule -> Harness.result
(** [Harness.run] of {!scenario_of} — deterministic. *)

type shrink_outcome = {
  minimal : schedule;
  violations : Invariant.violation list;  (** of the minimal schedule *)
  shrink_runs : int;  (** harness runs the shrinker spent *)
}

val shrink : config -> schedule -> shrink_outcome
(** Greedy minimization: repeatedly try dropping one reset, disabling
    the attack, zeroing one fault probability, halving downtimes, or
    truncating the horizon past the first violation; keep any variant
    that still violates; stop at a fixpoint or when the run budget is
    spent. Deterministic. *)

type outcome = {
  schedule : schedule;
  violation_count : int;
  first_violation : Invariant.violation option;
  save_failures : int;
      (** the run's store-fault recovery counters ({!Metrics.t}, the
          primary run's in stealth mode) *)
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
      (** the minimal schedule re-ran to the identical violation list
          (vacuously true with no violations) *)
  total_runs : int;
}

val explore : ?progress:(int * int -> unit) -> config -> report
(** Run the whole batch; shrink the first violating seed if any.
    [progress] is called after each seed with [(index, violations)]. *)

val schedule_to_json : schedule -> Resets_util.Json.t
val report_to_json : report -> Resets_util.Json.t
