(** The E17 reboot-convergence scenario matrix.

    Crosses three axes over real daemon pairs on a loopback wire:

    - {b reset scope}: one SA's worth of traffic ([Single_sa]), the
      whole SADB ([Whole_sadb]), or a disk-lost cold start
      ([Disk_lost]: the receiver's store directory is wiped before the
      respawn);
    - {b recovery discipline}: how the restarted receiver reloads
      state — one file per SA ([Per_sa]), one snapshot per daemon
      ([Coalesced]), or none ([Reestablish]);
    - {b background churn}: the sender's traffic shape during the
      reset ([Steady] constant, [Storm] bursty rekey-storm pacing,
      [Mixed]).

    Each cell runs one crash-restart experiment, the same driver for
    every row: warm a pair up under a {!Supervisor}, reset the receiver
    (SIGKILL and the planned downtime, wiping the store for
    [Disk_lost]), let the supervisor respawn it with
    [--expect-recovery], and measure — {e from the heartbeat JSONL
    alone} — messages lost to stale state against the paper's 2·K
    bound, and time from respawn to the first heartbeat with every SA
    delivering.

    Beyond the matrix, {!run} exercises two kill-mode probes (SIGTERM
    graceful flush: the terminal heartbeat's edge must be durable;
    SIGSTOP stall: only the heartbeat watchdog can catch it) and two
    faulty cells (a misbehaving file store, an impaired wire), and
    records everything as E17's {!Resets_core.Report.t}. *)

type scope = Single_sa | Whole_sadb | Disk_lost
type discipline = Per_sa | Coalesced | Reestablish
type churn = Steady | Storm | Mixed
type cell = { scope : scope; discipline : discipline; churn : churn }

type params = {
  k : int;  (** saves every k messages; the bound is 2·k *)
  rate_pps : float;  (** per-SA send rate *)
  warmup_s : float;
  downtime_s : float;  (** planned hold between kill and respawn *)
  post_s : float;  (** restarted incarnation's bounded run *)
  heartbeat_s : float;
  repeats : int;
  seed : int;  (** impairment / fault-plan seed *)
  batch : int;  (** both daemons' wire batch depth ([serve --batch]) *)
}

val smoke_params : params
val full_params : params

val full_cells : cell list
(** The full 3 x 3 x 3 = 27-cell matrix. *)

val smoke_cells : cell list
(** One cell per reset scope (seconds of wall clock) — the check.sh
    gate. *)

val title : string
val claim : string
(** E17's title and paper claim, for {!Resets_core.Report.create}. *)

val run :
  bin:string ->
  workdir:string ->
  ?log:(string -> unit) ->
  ?cells:cell list ->
  ?params:params ->
  ?kill_modes:bool ->
  Resets_core.Report.t ->
  unit
(** Run the matrix, then (with [kill_modes], the default) the two
    kill-mode probes, then the two faulty cells, recording E17's
    parameters, its [cells], [kill_modes] and [faulty] rows, its
    measures ([cells_run], [lost_worst], [ttc_worst_s]) and one check
    per gate into the report: every cell converged with at most 2k
    fresh messages lost and a clean daemon exit, each probe passed,
    each faulty cell passed. [bin] is the [ipsec_resets] executable
    (its [serve] verb is the daemon); [workdir] holds one directory per
    cell (sockets, stores, heartbeats, logs — inspectable after a
    failure). *)
