(** Persistent-store interface.

    The paper's SAVE and FETCH operations target "persistent memory":
    storage whose contents survive a reset, written by an operation
    that takes non-zero time (during which the host keeps sending or
    receiving). Two facts matter for correctness and both are part of
    this contract:

    - a SAVE that has {e completed} before a reset is durable;
    - a SAVE still {e in flight} at a reset leaves the previously
      stored value in place (the write is lost, not torn). *)

(** {1 First-class stores}

    The protocol processes ({!Resets_core.Sender}, [Receiver]) hold a
    store as a {e value} rather than a functor argument, so one compiled
    sender runs against the simulated disk in a deterministic replay
    {e and} against the real filesystem in the wire daemon.
    {!Sim_disk.store}, {!File_store.store} and
    {!File_store.Snapshot.store} build it. *)

(** Result of a checked (integrity-verified) fetch. *)
type checked_fetch =
  | Fetched of int  (** latest durable value, verified *)
  | Missing  (** no durable record under the key *)
  | Corrupt  (** record present but failed verification *)
  | Stale of int  (** a superseded value was served *)

type t = {
  label : string;  (** for traces and error messages *)
  save :
    key:string ->
    value:int ->
    on_error:(unit -> unit) ->
    on_complete:(unit -> unit) ->
    unit;
      (** Begin persisting [value] under [key]; [on_complete] once
          durable, [on_error] if the write failed leaving the previous
          value intact (the caller may retry; a store without a fault
          plan only reports a real I/O error). Starting a new save for
          the same key while one is in flight supersedes the pending
          write. May complete synchronously (the real filesystem) or
          after a scheduled latency (the simulated disk); callers must
          cope with both. *)
  fetch : key:string -> int option;  (** last durable value *)
  fetch_checked : key:string -> checked_fetch;
      (** FETCH with integrity verification; one call per protocol
          FETCH (fault rolls are consumed per call on faulty media). *)
  preload : key:string -> value:int -> unit;
      (** Make a value durable immediately, bypassing latency and
          fault injection — SA-establishment state. *)
  crash : unit -> unit;
      (** Host reset: discard in-flight writes, keep durable state.
          No-op on stores with synchronous saves. *)
  base_latency : Resets_sim.Time.t;
      (** The medium's write latency; recovery schedules (and the
          shard layer's stagger) are computed from it. *)
}

val save :
  ?on_error:(unit -> unit) ->
  t ->
  key:string ->
  value:int ->
  on_complete:(unit -> unit) ->
  unit
(** The record's [save] ([on_error] defaults to doing nothing). *)

val fetch : t -> key:string -> int option
val fetch_checked : t -> key:string -> checked_fetch
val preload : t -> key:string -> value:int -> unit
val crash : t -> unit
val base_latency : t -> Resets_sim.Time.t
val label : t -> string

(** {1 Counters}

    Every medium counts its writes and checked reads in one tally, the
    same fields whichever medium it is: {!Faults.count_write} counts a
    finished write and {!Faults.serve} a checked read. One rule holds on
    every medium: a save counts as begun and then by how it ended; a
    checked read counts when it serves a corrupt record (a flipped bit,
    or a file that does not parse) or a stale one; preloads and
    unchecked fetches count nothing. *)

type tally = {
  mutable begun : int;  (** writes begun *)
  mutable completed : int;  (** writes that became durable *)
  mutable failed : int;
      (** writes that reported failure: transient failures, torn
          writes and real I/O errors *)
  mutable torn : int;
      (** failed writes that tore: a strict prefix of a snapshot's
          entries landed, or a file's rename was aborted *)
  mutable lost : int;  (** writes in flight at a crash *)
  mutable corrupt : int;  (** checked reads that served a corrupt record *)
  mutable stale : int;  (** checked reads that served a superseded record *)
}

val tally : unit -> tally
(** All counters zero. *)
