(** Section 6's prolonged-reset scheme.

    An IPsec pair is usually bidirectional, so the host that stays up
    can {e detect} its peer's death (dead-peer detection, here the
    traffic-based variant of the paper's reference [3]: any delivery
    from the peer counts as life). On detecting death it keeps the SAs
    alive for a bounded [keep_alive] period instead of tearing them
    down. When the reset host wakes up, it FETCHes, leaps, and its
    first secured message doubles as the "I am up again" announcement;
    the survivor accepts it iff its sequence number clears the
    anti-replay window's right edge — which a replayed old announcement
    never does, closing the paper's "reset notification can itself be
    replayed" attack.

    The run returns what a paper table would report: when death was
    detected, whether the SA survived, whether the announcement was
    accepted, whether a replayed announcement was rejected, and the
    end-to-end convergence time. *)

type config = {
  k : int;  (** SAVE interval at the resetting host *)
  save_latency : Resets_sim.Time.t;
  message_gap : Resets_sim.Time.t;
  link_latency : Resets_sim.Time.t;
  dpd : Resets_ipsec.Dpd.config;
  keep_alive : Resets_sim.Time.t;
      (** how long the survivor retains the SAs after detecting
          death *)
  window : int;
  framing : Resets_ipsec.Sa.framing;
      (** wire framing for the A→B SA (default [Seq64]); the
          adversary's announcement peek parses accordingly *)
}

val default_config : config

type outcome = {
  death_detected_at : Resets_sim.Time.t option;
  sa_survived : bool;  (** the keep-alive window outlasted the outage *)
  announce_accepted : bool;
      (** the survivor delivered the reset host's first post-wakeup
          message *)
  replayed_announce_rejected : bool;
      (** a replayed copy of the announcement was not delivered
          ([true] vacuously when no replay was attempted) *)
  convergence_time : Resets_sim.Time.t option;
      (** reset → survivor delivers fresh traffic again *)
  deliveries_after_recovery : int;
}

val run :
  ?seed:int ->
  ?replay_announce:bool ->
  reset_at:Resets_sim.Time.t ->
  downtime:Resets_sim.Time.t ->
  horizon:Resets_sim.Time.t ->
  config ->
  outcome
(** Host A sends to host B; A resets at [reset_at] and wakes after
    [downtime]. With [replay_announce], the adversary re-injects A's
    announcement one link-RTT after convergence. *)
