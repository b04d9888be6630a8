(** SA lifetime rollover.

    The paper lists "lifetimes of the keys" among the SA attributes and
    its cost argument is about {e unplanned} renegotiation; this module
    covers the planned kind, because it interacts with SAVE/FETCH
    state: every SA epoch has its own sequence space, its own persisted
    counter, and the old epoch's persisted state must be retired when
    the SA is.

    Two strategies:

    - [Make_before_break]: renegotiation starts [rekey_margin] packets
      before the lifetime expires; the receiver keeps both epochs'
      receivers (demultiplexed by SPI) until in-flight old-epoch
      traffic drains, so the switch loses nothing;
    - [Hard_expiry]: the SA is used until exhaustion, then traffic
      stops for a full renegotiation — the paper's re-establishment
      outage, planned. *)

type strategy = Make_before_break | Hard_expiry

type config = {
  lifetime_packets : int;
  rekey_margin : int;  (** packets before expiry to start renegotiating *)
  k : int;
  save_latency : Resets_sim.Time.t;
  message_gap : Resets_sim.Time.t;
  link_latency : Resets_sim.Time.t;
  ike_cost : Resets_ipsec.Ike.cost;
  horizon : Resets_sim.Time.t;
}

val default_config : config
(** Lifetime 1000 packets, margin 200, K = 25, 20 µs messages, a
    LAN-speed IKE (2.8 ms handshakes) and a 100 ms horizon — several
    rollovers per run. *)

type outcome = {
  rekeys_completed : int;
  delivered : int;
  messages_lost : int;  (** sent but never delivered *)
  duplicate_deliveries : int;
  max_delivery_gap : Resets_sim.Time.t;
      (** the longest service interruption observed *)
  persisted_keys_live : int;
      (** per-SPI counters still on disk at the end (old epochs must
          have been retired) *)
}

val run : ?seed:int -> strategy -> config -> outcome
