(** Seed-deterministic store-fault plan, shared by every persistence
    backend.

    The paper assumes SAVE/FETCH hit a reliable store; a plan relaxes
    that assumption deterministically. {!Resets_persist.Sim_disk} rolls
    it against the simulated medium (where it was born — see DESIGN.md
    §5c); {!Resets_persist.File_store} rolls the very same plan against
    the real filesystem, so the PR-5 retry/backoff/degrade recovery
    machinery is exercised on the path production runs.

    All faults are rolled from the plan's own PRNG in a fixed order —
    one roll per begun write, one per checked fetch — so a fault
    pattern is a pure function of its seed, and a store without a plan
    behaves exactly as before. *)

type spec = {
  write_fail_prob : float;  (** a begun write fails transiently *)
  torn_prob : float;  (** a multi-key snapshot tears (prefix durable) *)
  read_corrupt_prob : float;  (** a checked fetch serves a bit-flipped record *)
  read_stale_prob : float;  (** a checked fetch serves the superseded record *)
  latency_factor : float;
      (** multiply every write's latency by this —
          models a disk degraded by contention or wear. [1.] (the
          [none] default) leaves latency untouched; no PRNG rolls are
          consumed, so a plan differing only in this field keeps the
          fault pattern of the probabilistic fields byte-identical *)
}

val none : spec
(** All probabilities zero. *)

val is_none : spec -> bool

val spec_to_string : spec -> string
(** ["write_fail=0.1,torn=0,corrupt=0.05,stale=0.05,latency=1"] — the
    CLI wire format; fields at their default may be omitted. *)

val spec_of_string : string -> (spec, string) result
(** Inverse of {!spec_to_string}: it reads a printed spec back to the
    same spec. Omitted fields default to {!none}'s; the empty string is
    {!none}. A probability that is not finite or not in \[0, 1\], a
    latency factor that is not finite or is negative, and an unknown
    field are refused, with a message naming the field. *)

type t

val create : spec:spec -> prng:Resets_util.Prng.t -> t
(** A plan rolling faults from [prng]. The plan owns the PRNG: rolls
    happen once per begun write and once per checked fetch, in
    operation order, so the fault pattern is seed-deterministic. *)

val spec : t -> spec

val latency_factor : t -> float

type write_outcome = [ `Ok | `Fail | `Torn of int ]
(** [`Torn n]: a strict prefix of [n] entries becomes durable. *)

val roll_write : t -> n_entries:int -> write_outcome
(** Roll the fate of one begun write covering [n_entries] keys. Exactly
    one [bernoulli] draw for a single-entry write; a multi-entry write
    draws the torn roll (and the prefix length when torn) after it —
    the historical {!Sim_disk} order, preserved so committed fault
    artifacts replay byte-identically. *)

type read_outcome = [ `Ok | `Corrupt_bit of int | `Stale ]

val roll_read : t -> read_outcome
(** Roll the fate of one checked fetch. [`Corrupt_bit b] flips bit [b]
    of the served value (the envelope checksum then fails); [`Stale]
    serves the last superseded record when one exists. Called only by
    {!serve}. *)

(** {1 The one fault path}

    Every medium serves its checked reads through {!serve}, lands its
    writes through {!landed} and counts them through {!count_write}, so
    one plan gives the same verdicts and the same {!Store.tally} on the
    simulated disk and on both file layouts. A medium keeps, for every
    key, the record its last landed install under a plan replaced: that
    is the record a stale roll serves. *)

val landed : [< write_outcome ] -> 'a list -> 'a list
(** The entries of a write that become durable under its outcome:
    all of them ([`Ok]), none ([`Fail]) or the first [n] ([`Torn n]). *)

val count_write : Store.tally -> [< write_outcome ] -> unit
(** Count one finished write: [`Ok] as completed, [`Fail] as failed,
    [`Torn _] as failed and torn. A write that an I/O error stopped
    counts as [`Fail]. *)

val serve :
  t option ->
  Store.tally ->
  key:string ->
  latest:Envelope.t ->
  prev:(unit -> Envelope.t option) ->
  Store.checked_fetch
(** [serve plan tally ~key ~latest ~prev] is one checked FETCH of
    [key], whose durable record is [latest]. Under a plan it rolls
    {!roll_read} once: [`Corrupt_bit] serves [latest] with one value
    bit flipped, [`Stale] serves [prev ()] (the superseded record, or
    [latest] when there is none). The served record is [Corrupt] when
    its checksum fails, [Stale] when its generation is below
    [latest]'s, and [Fetched] otherwise; the first two are counted in
    [tally]. Without a plan nothing is rolled and [latest] is
    verified. [prev] is called only on a stale roll. *)
