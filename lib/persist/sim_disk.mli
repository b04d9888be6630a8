(** Simulated persistent disk attached to the discrete-event engine.

    A save begun at time [t] becomes durable at [t + latency]; the
    paper's constants [Tp]/[Tq] are this latency. A [crash] before the
    completion event fires discards the in-flight write, which is
    exactly the "reset occurs before the current SAVE finishes" branch
    of the paper's Figures 1 and 2.

    {b Fault injection.} The paper assumes SAVE/FETCH hit a reliable
    store; a {!Faults.t} plan relaxes that assumption deterministically.
    With a plan attached, a write may fail transiently (nothing becomes
    durable, the caller's [on_error] fires after the disk latency), a
    multi-key snapshot may tear (a strict prefix of its entries becomes
    durable, still reported failed), and a FETCH through
    {!fetch_checked} may serve a corrupt or stale record. Every durable
    record is a checksummed envelope carrying a per-key write
    generation, so corruption is detected by checksum and staleness by
    generation — the generation index itself is assumed reliable (an
    8-byte superblock counter), a strictly weaker assumption than the
    paper's fully reliable store. All faults are rolled from the plan's
    own PRNG in a fixed order, so a fault pattern is a pure function of
    its seed, and a disk without a plan behaves exactly as before.
    Reads are served, writes landed and both counted by {!Faults}, the
    path {!File_store} shares.

    {b Per-shard isolation.} A disk belongs to exactly one
    {!Resets_sim.Engine.t} (its completion events are scheduled there)
    and is not thread-safe; a sharded simulation therefore gives every
    shard its own disk on the shard's own engine. This is semantically
    free: writes to distinct keys never interact (per-key supersede is
    the only cross-write rule), so as long as no two shards share a
    key, D disks behave exactly like one disk that happens to admit D
    concurrent writers. Only the per-disk counters ({!tally},
    [key_count]) become per-shard and must be summed in sa-index order
    by the merge step. *)

open Resets_sim

type t

val create :
  ?trace:Trace.t ->
  ?name:string ->
  ?faults:Faults.t ->
  latency:Time.t ->
  Engine.t ->
  t
(** [create ~latency engine] is an empty disk whose writes take
    [latency]. [name] labels trace entries (default ["disk"]). *)

val set_faults : t -> Faults.t -> unit
(** Attach (or replace) the fault plan after construction. Used by the
    harness so fault-free scenarios keep their PRNG split order — and
    therefore their committed artifacts — byte-identical. *)

val set_latency_observer : t -> (Time.t -> unit) -> unit
(** [f latency] fires at the {e begin} of every write with the latency
    that write will incur. Begin-time (not completion-time) on purpose:
    a superseded write never completes, and the adaptive K policy needs
    the latency signal precisely when supersede pressure is starving
    completions. A pure observer — installing one changes no simulation
    event and consumes no PRNG draw. *)

val save :
  ?on_error:(unit -> unit) ->
  t ->
  key:string ->
  value:int ->
  on_complete:(unit -> unit) ->
  unit
(** Begin persisting [value] under [key]: durable after the disk
    latency, when [on_complete] runs; [on_error] runs instead when the
    fault plan fails or tears the write. A newer write to the key
    supersedes this one while it is in flight. *)

val fetch : t -> key:string -> int option
(** Last durably stored value, if any. *)

val crash : t -> unit
(** Reset of the attached host: every in-flight write is discarded
    (counted as lost); durable state is untouched. *)

val save_snapshot :
  ?on_error:(unit -> unit) ->
  t ->
  entries:(string * int) array ->
  on_complete:(unit -> unit) ->
  unit
(** [save_snapshot t ~entries ~on_complete] begins ONE write covering
    every [(key, value)] pair: all keys become durable together after
    the disk latency, a crash before completion loses the whole
    snapshot, and the write counts once in the {!tally}.
    A snapshot supersedes any in-flight write touching one of its keys
    (and is itself superseded, as a whole, by a later write to any of
    them) — the same "only the most recent write can become durable"
    rule as [save]. This is our coalesced multi-SA persistence
    discipline (an extension; the paper persists each SA on its own):
    many SAs amortise one disk write.
    Under a fault plan the snapshot may fail outright or tear: a torn
    snapshot installs a strict prefix of [entries] (in array order) and
    still reports [on_error]. @raise Invalid_argument when [entries] is
    empty. *)

val fetch_checked : t -> key:string -> Store.checked_fetch
(** FETCH through the checksummed envelope. Without a fault plan this
    is [fetch] with verification (always [Fetched]/[Missing]); under a
    plan it may yield [Corrupt] (checksum failed) or [Stale] (the
    record verified but its generation is below the key's current one:
    a superseded value was served).
    Each checked fetch under a plan consumes fault rolls, so call it
    once per protocol FETCH. Repeating a failed fetch models re-reading
    the medium and may succeed — transient-fault semantics. *)

val preload : t -> key:string -> value:int -> unit
(** Make a value durable immediately, bypassing latency, counters and
    the fault plan — models state written at SA establishment (at
    simulation start, or when a degraded SA re-establishes). Cancels
    any write still in flight for the key: the preloaded value is the
    durable truth, and a stale sequence space's write must not land on
    top of it. *)

val remove : t -> key:string -> unit
(** Durably delete a key (cancels any pending write to it). Models
    retiring a rekeyed SA's persisted counter. *)

val key_count : t -> int
(** Number of durable keys. *)

val in_flight : t -> int
(** Number of pending (not yet durable) writes. *)

val tally : t -> Store.tally
(** This disk's live counters, by {!Store.tally}'s one rule: writes
    begun, completed, failed, torn and lost to crashes, and checked
    fetches served corrupt or stale. Preloads are not counted. *)

val base_latency : t -> Time.t
(** The write latency this disk was created with. The shard layer's
    staggered per-SA recovery schedule is computed from it (see
    {!Resets_core.Multi_sa}). *)

val store : t -> Store.t
(** This disk as a first-class {!Store.t} — what the protocol
    processes hold. The record closes over the disk: counters,
    [set_faults] and [crash] through either view stay coherent. *)
