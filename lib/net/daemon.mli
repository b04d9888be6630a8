(** The [serve] daemon: the paper's protocol as two real processes.

    One daemon plays one side of the unidirectional association —
    [Send] (process p) or [Recv] (process q) — over a
    {!Transport_udp} socket, with sequence state persisted through
    {!Resets_persist.File_store} under the SAVE/FETCH k-rule, exactly
    the code paths the simulation runs, now against a wall clock
    ({!Resets_sim.Clock.of_ns_source}) and a real filesystem.

    {b Recovery is implicit in the store.} On startup, each SA whose
    key already exists in the store directory is a previous
    incarnation's: the daemon then skips the establishment preload and
    performs the paper's wakeup — FETCH, leap by [2k], blocking SAVE —
    before touching the wire. Killing a daemon with SIGKILL and
    restarting it on the same store is therefore the paper's reset
    experiment on real processes.

    {b One loop.} Every SA of the daemon lives on one engine, driven
    from the wall clock by {!Resets_sim.Engine.run_clocked} in the
    process's main domain, next to the one socket. Receiving, the
    engine's [idle] hook waits on the socket until the next due event
    (at most 20 ms) and {!Transport_udp.drain}s whole [recvmmsg]
    batches into the rx arena; the SPI is read off each frame in place
    ({!Resets_ipsec.Esp.spi_of_slice}), range-checked, and the frame
    goes straight to its SA's {!Resets_core.Receiver.on_frame}, which
    decodes it in the arena and copies it only to keep it past the
    call. Sending, frames are staged in the
    socket's tx pool and flushed at every engine-tick boundary
    ([run_clocked]'s [tick] hook), so staged frames never outlive a
    tick. Heartbeats are an engine timer that reads the SAs' live
    counters.

    {b Observability.} With [stats_path] set, a startup line records
    the configured [batch] and the socket-buffer sizes the kernel
    actually granted ([rcvbuf_effective]/[sndbuf_effective]); each
    heartbeat line carries a ["wire"] object — receive-batch fill
    percentiles ([rx_batch_p50]/[p99]/[max]) on the receive side, flush
    counts and the tx-pool high-water mark on the send side.

    {b Convergence gate.} With [expect_recovery], a receiving daemon
    exits 0 only if every SA converged after the restart: its stored
    edge was recovered, fresh traffic was delivered again, at most
    [2k] fresh packets were rejected (the paper's bound), no duplicate
    deliveries, no ICV failures, and — against the last line of
    [stats_path] that lists SAs, so a trailing startup line or a line
    torn by a kill is passed over — no delivered sequence number at or
    below the old incarnation's highest (no cross-incarnation replay).
    Violations exit 2, listed in the report. *)

type role = Send | Recv

(** Recovery discipline: how this process treats persisted sequence
    state across a restart — one axis of the E17 reboot-convergence
    matrix. *)
type discipline =
  | Per_sa  (** one store key per SA, each recovered independently *)
  | Coalesced
      (** one {!Resets_persist.File_store.Snapshot} file holding every
          SA's counter (our coalesced extension, not the paper's): every
          save of one SA rewrites the whole file, and recovery reads
          every edge back from it, but each SA's blocking wakeup SAVE is
          still its own write of the whole file *)
  | Reestablish
      (** ignore stored state; every SA establishes a fresh sequence
          space (recovery by re-establishment — the alternative the
          paper's protocol exists to avoid). The [expect_recovery]
          gate then checks convergence without requiring recovery. *)

(** Background traffic shape (the churn axis). The daemon has no wire
    IKE, so a "rekey storm" is modelled at the wire level as the
    bursty on/off source; [Mixed] alternates shapes by SA index. *)
type churn = Steady | Storm | Mixed

type config = {
  role : role;
  bind : Transport_udp.addr option;  (** required for [Recv] *)
  peer : Transport_udp.addr option;  (** required for [Send] *)
  secret : string;  (** shared SA-derivation secret (no wire IKE) *)
  spi_base : int;
  sas : int;  (** SPIs [spi_base .. spi_base+sas-1] *)
  k : int;  (** SAVE every [k] (leap = [2k]) *)
  adaptive : bool;
      (** when true, each SA runs {!Resets_core.K_policy.adaptive}
          seeded at [k]: the SAVE cadence re-derives itself online
          from measured wall-clock SAVE latency and inter-send gaps
          (the gate's leap bound widens to [2 * ceiling]) *)
  window : int;
  rate_pps : float;  (** send rate per SA *)
  duration : float;  (** wall-clock run time, seconds *)
  store_dir : string;
  stats_path : string option;
      (** heartbeat JSONL, appended — and, on restart, where the
          previous incarnation's last heartbeat listing SAs is read
          from *)
  json_path : string option;  (** final report *)
  expect_recovery : bool;
  heartbeat : float;  (** heartbeat period, seconds; must be > 0 *)
  batch : int;
      (** wire batch size (rx arena slots / tx pool depth), in
          [\[1, Batch_io.max_batch\]]; 1 = unbatched
          one-syscall-per-frame *)
  rcvbuf : int option;  (** request an explicit [SO_RCVBUF] *)
  sndbuf : int option;  (** request an explicit [SO_SNDBUF] *)
  discipline : discipline;
  churn : churn;
  impair : Resets_sim.Link.faults;
      (** the wire's faults on every sender's send path (loss, bursts,
          duplication, reordering by a delay): one seeded
          {!Resets_sim.Link} per SA on the daemon's engine, in front of
          the socket. {!Resets_sim.Link.no_faults} creates no link: the
          send path is the socket send itself *)
  impair_seed : int;
      (** PRNG root for impairment (and churn) streams, keyed per SA
          by index *)
  store_faults : Resets_persist.Faults.spec;
      (** seed-deterministic fault plan on the file store (transient
          write failures, aborted renames, corrupt/stale checked
          reads); {!Resets_persist.Faults.none} = clean store. Its
          latency factor must be 1: a file store does not slow its
          writes *)
  fault_seed : int;  (** PRNG root for the store-fault plan (stream 0) *)
  handle_signals : bool;
      (** install a SIGTERM handler: on delivery the daemon stops
          early, every SA performs a final blocking SAVE of its
          freshest counter, and the terminal heartbeat is stamped
          [reason = "sigterm"]. Opt-in so embedded runs never steal
          the host process's signal dispositions. *)
}

val default : config
(** [Recv] over [unix:/tmp/resets.sock], 1 SA, [k = 8], 3 s at 200 pps
    — override per run. *)

val run : config -> int * Resets_util.Json.t
(** Run to [duration]; returns (exit code, final report). Exit 0 on
    success, 2 when the [expect_recovery] gate found violations
    (listed under ["gate"] in the report).
    @raise Invalid_argument on a config it cannot run: no SAs, a batch
    or heartbeat out of range, a store-fault latency other than 1, a
    role without its address. *)
