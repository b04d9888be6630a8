(** Fault-injecting fleet supervisor.

    Keeps a set of daemon processes ({!Proc}) alive across deliberate
    and accidental deaths, the way the E17 experiments need:

    - {b scripted kills} ({!kill}): deliver any signal, optionally
      wipe store directories before the respawn (disk-lost cold
      start), and pin the respawn time — planned downtime follows the
      experiment's schedule, not the backoff;
    - {b crash restarts}: an unscripted death respawns after a capped
      exponential backoff (reset after a stable run), so a crash-
      looping daemon cannot busy-spin the supervisor;
    - {b watchdog}: a process that is alive but whose heartbeat JSONL
      has stopped growing past a stall deadline (SIGSTOP, livelock) is
      SIGKILLed and counted in {!watchdog_restarts}; the respawn flows
      through the normal path.

    Each respawn is a new {e incarnation}: the slot's [argv] is a
    function of the incarnation number, so a restart can change flags
    (the E17 runner adds [--expect-recovery] from incarnation 1 on).
    The supervisor is single-threaded and poll-driven: nothing happens
    outside {!tick_until} / {!stop}. *)

type spec = {
  name : string;
  argv : int -> string list;  (** incarnation number -> command line *)
  log : string;  (** stdout+stderr, append mode, shared by incarnations *)
  watchdog : (string * float) option;
      (** (heartbeat file, stall seconds): SIGKILL when the file stops
          growing for that long *)
  backoff_base : float;  (** first crash-respawn delay, seconds *)
  backoff_cap : float;
}

val default_spec :
  name:string -> argv:(int -> string list) -> log:string -> spec
(** No watchdog, backoff 0.1 s doubling to a 2 s cap. *)

type slot
type t

val create : unit -> t
val add : t -> spec -> slot

val start : t -> unit
(** Spawn every slot that has no process and no pending respawn. *)

val tick_until : t -> timeout:float -> (unit -> bool) -> bool
(** Run a supervision pass (reap deaths and schedule their respawns,
    run the watchdog, spawn respawns that are due) every ~20 ms until
    the condition holds ([true]) or the timeout passes ([false]). *)

val kill : ?wipe:string list -> slot -> signal:int -> hold:float -> unit
(** Scripted kill: deliver [signal] now; before the respawn, empty
    every directory in [wipe]; respawn after [hold] seconds of planned
    downtime (regardless of backoff). *)

val stop : t -> grace:float -> unit
(** Disable restarts, SIGTERM everything, wait up to [grace] seconds
    for clean exits (graceful daemons flush state), then SIGKILL the
    rest. *)

val proc : slot -> Proc.t option
(** The live incarnation, if any. *)

val incarnations : slot -> Proc.t list
(** Every incarnation spawned so far, oldest first (dead ones
    included) — pids and start times for heartbeat attribution. *)

val restarts : slot -> int
(** Respawns performed (scripted and crash alike). *)

val watchdog_restarts : slot -> int
(** How many of the kills were watchdog-forced. *)

val wipe_dir : string -> unit
(** Recursively empty a directory, keeping the directory itself. *)
