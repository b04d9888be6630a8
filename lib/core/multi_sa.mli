(** A host carrying many SAs: recovery at scale.

    Section 3's cost argument is per-host: "a host may have multiple
    SAs existing at the same time ... Requiring a host with multiple
    existing SAs to drop and reestablish all the existing SAs because
    of a reset stands for a huge amount of overhead". This module
    builds [n] parallel {!Endpoint.t}s (one per sender→receiver
    association) whose receivers live on one host with one disk,
    resets that host once (all SAs lose their volatile state together,
    and the disk loses every write in flight), and measures recovery
    under three disciplines:

    - [`Save_fetch_per_sa]: the paper, one FETCH + leap + blocking
      wakeup SAVE per SA, sequentially (the disk serializes writes);
      each receiver persists its own edge;
    - [`Save_fetch_coalesced]: our extension — the host persists every
      SA's edge in one {!Resets_persist.Sim_disk.save_snapshot} per
      fixed flush period, and recovery leaps every durable edge and
      writes them all in one snapshot (they fit in one block), so
      recovery is one SAVE regardless of [n];
    - [`Reestablish]: IKE-lite renegotiation per SA, sequentially.

    Under both SAVE/FETCH disciplines the leap is the one
    [K_policy.static k] defines. A recovery SAVE or durable record that
    keeps failing under a disk fault plan degrades its SA to IKE
    re-establishment after 3 tries.

    Since the endpoints run through the same datapath as the
    single-SA harness, an {!Endpoint.attack} can be staged against
    every link, and [replay_accepted] is measured, not assumed.

    {b Multicore.} The [n] SAs share only three things: a wall clock,
    one reset event, and a recovery discipline whose serialized cost
    is a closed-form function of each SA's global index: SA [g]'s
    recovery step starts [g] steps (one disk write, or one IKE
    handshake) after recovery begins. So [run ~domains:d] splits them
    into [d] contiguous shards ({!partition}), simulates each shard on
    its own {!Resets_sim.Engine.t} and {!Resets_persist.Sim_disk.t} in
    its own spawned domain, and merges the per-shard results in SA
    order.
    Three ingredients make every protocol-level outcome identical
    whatever [d] is:

    - {b PRNG streams keyed by SA index.} SA [g] draws everything
      random about it (link adversary, start offset, IKE nonces) from
      [Prng.keyed ~seed ~stream:g] — a pure function of [(seed, g)],
      unlike sequential [Prng.split] chains whose values depend on how
      many SAs were built before this one.
    - {b Global-index scheduling.} Disk keys, SPIs and the serialized
      recovery staggers are computed from [g], so a shard reproduces
      the absolute timing the unsharded host would give its slice.
    - {b Disjoint state.} Shards share no keys, so [d] disks behave
      like one disk (see {!Resets_persist.Sim_disk}), and the merge is
      a deterministic SA-ordered reduction.

    What is {e not} partition-invariant, by construction:
    [events_fired] (each shard pays its own reset/recover bookkeeping
    events), the coalesced recovery [disk_writes] (one snapshot {e per
    shard}), and trace interleaving at equal timestamps (ties are
    broken by shard order). Everything protocol-level — deliveries,
    losses, replay verdicts, readiness and recovery times — is, and
    [test/test_shard.ml] diffs it field by field. *)

open Resets_sim

type discipline = [ `Save_fetch_per_sa | `Save_fetch_coalesced | `Reestablish ]

type config = {
  sa_count : int;
  k : int;
  save_latency : Time.t;
  message_gap : Time.t;  (** per SA *)
  link_latency : Time.t;
  reset_at : Time.t;
  downtime : Time.t;
  horizon : Time.t;
  ike_cost : Resets_ipsec.Ike.cost;
  attack : Endpoint.attack;
      (** staged against every SA's link (adversary taps are only
          attached when an attack is configured, so attack-free scale
          runs carry no capture buffers) *)
  keep_trace : bool;
      (** record a per-shard {!Resets_sim.Trace.t} and return its
          entries (merged deterministically); off by default — scale
          runs should not pay for tracing *)
}

val default_config : config
(** 16 SAs, K = 25, the paper's latencies, reset at 10 ms for 1 ms,
    horizon 120 ms, no attack, no trace. *)

type shard_stat = {
  stat_lo : int;
  stat_hi : int;  (** this shard carried SAs [stat_lo..stat_hi) *)
  stat_events_fired : int;
  stat_wall_s : float;  (** wall-clock seconds the shard took *)
}

type outcome = {
  ready_time : Time.t;
      (** reset → every SA's state recovered and processing again
          (downtime + the recovery discipline's own cost) *)
  recovery_time : Time.t;
      (** reset → every SA delivering again (includes waiting out the
          leap: post-reset sequence numbers must pass the recovered
          edge); when [recovered_fully] is false this is the
          horizon-capped lower bound *)
  recovered_fully : bool;
  messages_lost : int;
      (** arrivals at the dead/recovering host, plus arrivals that no
          longer verify (stale keys after re-establishment) *)
  replay_accepted : int;
      (** adversary injections delivered, summed over every SA — the
          paper's guarantee is that SAVE/FETCH keeps this 0 *)
  adversary_injected : int;  (** replayed packets put on the wires *)
  duplicate_deliveries : int;
  disk_writes : int;  (** completed persistent writes at the receiver *)
  disk_saves_lost : int;  (** writes in flight when the host reset *)
  disk_saves_failed : int;
      (** writes the store reported failed (fault plan) *)
  disk_fetches_corrupt : int;
      (** checked FETCHes served corrupt or stale (fault plan) *)
  link_dropped : int;  (** packets lost across every SA's link *)
  link_duplicated : int;
  link_reordered : int;
  handshake_messages : int;  (** wire messages spent renegotiating *)
  delivered : int;
  events_fired : int;
      (** engine events the run consumed, summed over shards — the
          numerator of E14's events-per-second throughput. NOT
          partition-invariant (constant per-shard overhead). *)
  shard_stats : shard_stat array;
      (** one entry per shard, in SA order — per-shard throughput for
          E14's min/max columns *)
  trace : Trace.entry list;
      (** merged: time order, shard order at equal times; [[]] unless
          [config.keep_trace] *)
}

val partition : sa_count:int -> shards:int -> (int * int) array
(** [partition ~sa_count ~shards] tiles [0, sa_count) into [shards]
    contiguous [(lo, hi)] ranges whose sizes differ by at most one
    (the first [sa_count mod shards] ranges are the longer ones) —
    the shards [run] simulates.
    @raise Invalid_argument unless [1 <= shards <= sa_count]. *)

val run : ?seed:int -> ?domains:int -> discipline -> config -> outcome
(** [run discipline config] simulates the whole host. With
    [~domains:d] (default 1) and [d > 1] it spawns one domain per
    shard, joins every one of them in SA order (re-raising the first
    shard's exception only after all are joined), and merges their
    results. With [d = 1] the run is inline and spawns nothing: the
    sequential oracle the sharded path is diffed against.
    @raise Invalid_argument when [sa_count <= 0], [domains < 1], or
    [domains > sa_count]; and, from inside each shard, when the
    coalesced flush period [message_gap * k] is not positive or a
    per-SA receiver's [k] is not. *)
