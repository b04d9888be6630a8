(** A host carrying many SAs that share one disk: reset and recovery
    at scale.

    Section 3's cost argument is per-host: a reset wipes the volatile
    state of {e every} SA the host carries at once, and the recovery
    discipline determines whether the cost of coming back is linear in
    the SA count or constant. A [Host.t] owns an array of
    {!Endpoint.t}s whose receivers live on this host, plus the one
    {!Resets_persist.Sim_disk.t} they persist to, and implements the
    three disciplines:

    - {!Per_sa}: the paper, verbatim per SA — FETCH + leap + blocking
      SAVE, serialized on the single disk, so recovery is O(n);
    - {!Coalesced}: our extension — periodic persistence is one
      snapshot write per fixed flush period covering every SA, and
      recovery leaps every durable edge and persists them all in one
      {!Resets_persist.Sim_disk.save_snapshot} write: O(1) in the SA
      count;
    - {!Reestablish}: the IETF default the paper argues against —
      renegotiate every SA with IKE-lite, serially.

    Which endpoints carry their own receiver persistence depends on the
    discipline: [Per_sa] receivers persist under [sa_key g] themselves;
    [Coalesced] and [Reestablish] receivers are created with
    [persistence = None] and the host manages durability (or the lack
    of it). {!Multi_sa.run} is the canonical composer.

    {b Sharding.} A logical host of [n] SAs may be split across [D]
    hosts (one per shard, each on its own engine and disk) without
    changing any SA's outcome. Two properties make that hold: every
    per-SA schedule — recovery stagger, SPI, disk key — is computed
    from the SA's {e global} index ([first_sa + i]), and nothing an SA
    does depends on which other SAs share its host (serialized recovery
    is expressed as a closed-form stagger rather than an actual chain;
    the coalesced flush runs on a fixed absolute schedule and writes
    each SA's own edge). See {!Multi_sa}. *)

open Resets_sim
open Resets_persist

type discipline =
  | Per_sa
  | Coalesced
  | Reestablish of { cost : Resets_ipsec.Ike.cost }

type t

val sa_key : int -> string
(** Disk key of SA [g]'s receiver edge: ["sa-<g>"], with [g] the
    {e global} SA index. [Per_sa] composers must use this in the
    receivers' persistence records so host-level recovery and
    receiver-level SAVEs agree on the key space. *)

val create :
  ?k:int ->
  ?leap:int ->
  ?window:int ->
  ?arena:Resets_ipsec.Sadb_flat.t ->
  ?ike_prngs:Resets_util.Prng.t array ->
  ?first_sa:int ->
  ?spi_base:int32 ->
  ?flush_period:Resets_sim.Time.t ->
  ?retries:int ->
  disk:Sim_disk.t ->
  discipline:discipline ->
  Endpoint.t array ->
  Engine.t ->
  t
(** Defaults: [k = 25], [leap = 2k], window 64 in private arenas
    unless [arena] names a shared one (used when [Reestablish] derives
    fresh SAs, along with [ike_prngs] — one
    generator per endpoint, required for [Reestablish] — and
    [spi_base], default 0x6000). [first_sa] (default 0) is the global
    index of [endpoints.(0)]; a shard carrying SAs [lo..hi) passes
    [~first_sa:lo]. Under [Coalesced] this preloads every SA's
    established edge and schedules a periodic flush: one
    {!Resets_persist.Sim_disk.save_snapshot} per [flush_period]
    (default [k] disk latencies) covering every SA's current edge,
    skipped when no edge advanced. The flush schedule is absolute
    simulated time, deliberately {e not} traffic-driven — see the
    sharding note above. [retries] (default 3) is the recovery retry
    budget: how many times a failed recovery SAVE or an unreadable
    durable edge is retried (with capped exponential backoff) before
    the SA gives up on the store and degrades to IKE
    re-establishment.
    @raise Invalid_argument on an empty endpoint array, an [ike_prngs]
    array of the wrong length, or a non-positive [flush_period]. *)

val endpoints : t -> Endpoint.t array
val sa_count : t -> int

val first_sa : t -> int
(** Global index of SA 0 on this host. *)

val is_down : t -> bool

val handshake_messages : t -> int
(** Wire messages spent renegotiating (only [Reestablish] spends
    any). *)

val reset : t -> unit
(** Crash the host now: every receiver goes down together and the one
    disk loses all in-flight writes. Idempotent while down. *)

val recover :
  t ->
  ?on_sa_ready:(int -> unit) ->
  ?on_complete:(unit -> unit) ->
  unit ->
  unit
(** Begin the configured recovery discipline. [on_sa_ready i] fires
    when local SA [i] is processing again; [on_complete] when all are.

    Serialized disciplines ([Per_sa], [Reestablish]) schedule SA [g =
    first_sa + i]'s step at [now + g * step], where [step] is the
    discipline's fixed per-SA cost (one disk write; one IKE handshake).
    On an unsharded host this is exactly the sequential chain; on a
    shard it reproduces the chain's absolute timing for the shard's own
    slice, which is what makes sharded and unsharded runs agree per SA.
    @raise Invalid_argument when the host is not down. *)
