(** Real file-backed store.

    The paper notes SAVE/FETCH "can be implemented by write-to-file and
    read-from-file operations in an operating system"; this module is
    that implementation. Writes are crash-atomic {e and} durable: the
    value is written to a unique temporary file, fsynced, renamed over
    the final name, and the directory is fsynced so the rename itself
    survives a power cut. A reader (or a post-crash FETCH) sees either
    the old complete value or the new complete value — never a torn
    write — matching the {!Store} contract. Used by the CLI, the wire
    daemon ([serve]) and examples against a real filesystem.

    {b On-medium format.} Each key is one file holding a checksummed
    {!Envelope} (["gen value sum-hex"]); files written by the
    pre-envelope format (a bare integer) read back as generation-1
    records, so existing store directories stay readable.

    {b Fault injection.} An optional {!Faults.t} plan — the same
    seed-deterministic model {!Sim_disk} rolls against the simulated
    medium — makes the real filesystem misbehave on purpose. Every save
    rolls once, with the write's two phases (tmp write, rename) as its
    entries: [`Fail] is a transient write/fsync failure (nothing
    touches the medium), [`Torn _] is an {e aborted rename} (the tmp
    file is fully written and left behind, but the final name never
    changes — the old value stays the durable truth, which is exactly
    the atomicity the protocol relies on). Every {!fetch_checked} under
    a plan is one {!Faults.serve} and may serve a corrupt (bit-flipped,
    caught by checksum) or stale (superseded generation) record; every
    install under a plan whose rename happens, [preload] included,
    keeps the record it replaces in a [.prev] file for that stale
    read (an aborted rename replaces nothing). Rolls are consumed
    in operation order, so the fault pattern is a pure function of the
    plan's seed; a store without a plan writes one file per key. *)

type t

val create : dir:string -> t
(** Store values as files under [dir] (created if missing). *)

val set_faults : t -> Faults.t -> unit
(** Attach (or replace) a deterministic fault plan; a store without
    one behaves exactly as before. *)

val save :
  ?on_error:(unit -> unit) ->
  t ->
  key:string ->
  value:int ->
  on_complete:(unit -> unit) ->
  unit
(** Persist [value] under [key]. Completes synchronously: [on_complete]
    (or, when the plan fails or tears the write or the filesystem
    errs, [on_error]) runs before [save] returns. *)

val fetch : t -> key:string -> int option
(** Last durably stored value, if any. *)

val keys : t -> string list
(** Keys present on disk, unordered. *)

val remove : t -> key:string -> unit
(** Delete a stored value (used to model "delete the SA"). *)

val fetch_checked : t -> key:string -> Store.checked_fetch
(** [Missing] when no file exists, [Corrupt] when a file exists but
    does not parse or verify (a torn or foreign write — which the
    atomic save protocol never produces itself), [Fetched] otherwise.
    Under a fault plan a roll may serve the superseded record
    ([Stale]) or a bit-flipped value ([Corrupt]); each call consumes
    rolls, so call once per protocol FETCH. *)

val preload : t -> key:string -> value:int -> unit
(** Make a value durable immediately, bypassing the fault plan —
    SA-establishment state is durable by assumption (same contract as
    {!Sim_disk.preload}). *)

val tally : t -> Store.tally
(** This store's live counters, by {!Store.tally}'s one rule.
    [failed] counts every save that reported [on_error] (transient
    failures, aborted renames, real filesystem errors), [torn] the
    aborted renames (tmp written, final name unchanged); [lost] stays
    0, a save being synchronous; [corrupt] includes a key file that
    does not parse. Preloads are not counted. *)

val store : ?base_latency:Resets_sim.Time.t -> t -> Store.t
(** This store as a first-class {!Store.t}. Saves complete
    synchronously (callback before [save] returns); [crash] is a
    no-op; [preload] bypasses the fault plan. [base_latency] (default
    1 ms) is only advisory — recovery schedules derive wait times
    from it. *)

(** Coalesced snapshot store: every SA of a host (or worker shard)
    keeps its counter in ONE file, rewritten atomically as a whole on
    every save — the on-disk twin of {!Sim_disk.save_snapshot} and of
    our coalesced persistence discipline (an extension; the paper
    persists each SA on its own). A crash
    keeps or loses nothing partially (rename atomicity), and recovery
    reads every SA's edge back with one file. Under a fault plan a
    snapshot write may fail or {e tear}: a strict prefix of its sorted
    entries carries the new values while the rest keep their previous
    durable ones — still atomic on the medium, torn only with respect
    to the logical update, and still reported failed. *)
module Snapshot : sig
  type snap

  val load : ?faults:Faults.t -> dir:string -> name:string -> unit -> snap
  (** Open (or create) the snapshot file [name ^ ".snap"] under [dir]
      and read the durable table back, dropping entries that fail
      checksum verification. *)

  val entries : snap -> (string * int) list
  (** Durable table in sorted key order. *)

  val save :
    ?on_error:(unit -> unit) ->
    snap ->
    key:string ->
    value:int ->
    on_complete:(unit -> unit) ->
    unit

  val preload : snap -> key:string -> value:int -> unit
  val fetch : snap -> key:string -> int option
  val fetch_checked : snap -> key:string -> Store.checked_fetch

  val tally : snap -> Store.tally
  (** This snapshot's live counters, by {!Store.tally}'s one rule.
      [torn] counts snapshot writes that installed a strict prefix of
      new values. Preloads are not counted. *)

  val store : ?base_latency:Resets_sim.Time.t -> snap -> Store.t
  (** This snapshot as a first-class {!Store.t} — a save of any one
      key rewrites the whole table. *)
end
