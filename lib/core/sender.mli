(** Process p: the sending endpoint.

    Runs the paper's augmented process p on the simulation engine when
    given a persistence configuration, and the Section 2/3 volatile
    process when not:

    - while up, sends one ESP packet per traffic-model gap, attaching
      the SA's next sequence number; after each send, if the next
      sequence number has grown [k] past the last stored one, begins a
      background SAVE of it;
    - {!reset} models a crash: sending stops, the in-flight SAVE (if
      any) is lost with the rest of RAM;
    - {!wakeup} models recovery: FETCH the stored number, add the leap,
      SAVE the result {e blocking}, and only then resume sending — or,
      for the volatile baseline, resume at sequence number 1.

    The SAVE/FETCH side is a {!Durable} machine, the one {!Receiver}
    drives too; what is p's own is the send loop, the timer trigger
    and the stall guard. *)

(** When to begin a periodic background SAVE. The paper argues for
    [On_count] — "we measure the interval between two SAVEs in terms of
    the number of messages, rather than in terms of time, because the
    rate of message generation may change over time". [On_timer] exists
    to measure what that argument costs: under bursty traffic a timer
    wastes writes while idle and lets the durable value fall more than
    [2K] behind during a burst, breaking the wakeup leap's guarantee
    (experiment E13). *)
type trigger =
  | On_count  (** every [k] messages — the paper's rule *)
  | On_timer of Resets_sim.Time.t  (** every fixed interval *)

type persistence = {
  store : Resets_persist.Store.t;
      (** the persistent medium — {!Resets_persist.Sim_disk.store} in
          simulation, {!Resets_persist.File_store.store} in the wire
          daemon *)
  key : string;  (** store key this sender's counter lives under — lets
                     many senders share one store (multi-SA hosts) *)
  policy : K_policy.t;
      (** the SAVE-interval policy: [K_policy.current] replaces the
          historical frozen [k], [K_policy.leap] the frozen [2k] wakeup
          leap. Build with [K_policy.make (K_policy.static k)] for the
          paper's constant. *)
  trigger : trigger;
  retries : int;
      (** recovery retry budget: how many times a wakeup FETCH or SAVE
          is attempted against a faulty store before the SA degrades to
          re-establishment; every caller passes {!Durable.retries} *)
}

type t

val create :
  ?name:string ->
  ?trace:Resets_sim.Trace.t ->
  ?payload:(seq:int -> string) ->
  ?preload_store:bool ->
  sa:Resets_ipsec.Sa.t ->
  send:(Packet.t -> unit) ->
  traffic:Resets_workload.Traffic.t ->
  metrics:Metrics.t ->
  persistence:persistence option ->
  Resets_sim.Engine.t ->
  t
(** [send] is the channel: every packet p emits goes through it —
    {!Resets_sim.Link.send} in simulation, a socket write in the wire
    daemon (through a [Link] when its wire is impaired). It returns
    nothing: a packet the medium refuses is lost, which the protocol
    tolerates by design.

    With persistence, the store is preloaded with the initial sequence
    number (established state is durable) — unless [preload_store] is
    [false], for a daemon restarting against a store that already holds
    the previous incarnation's counter (it then recovers via {!reset} +
    {!wakeup} instead of clobbering the durable value). Default
    payload: ["message-<seq>"]. *)

val start : t -> unit
(** Schedule the first send. @raise Invalid_argument if started
    twice. *)

val stop : t -> unit
(** Stop sending permanently (end of experiment). *)

val reset : t -> unit
(** Crash now. Idempotent while down. *)

val wakeup : t -> ?on_ready:(unit -> unit) -> unit -> unit
(** Recover; [on_ready] fires when sending is possible again (after the
    blocking SAVE under Save/Fetch, immediately for Volatile).
    @raise Invalid_argument when not down. *)

val resume_fresh : t -> unit
(** Come back up on the currently installed SA — for degraded
    re-establishment, after [install_sa] of a fresh SA whose sequence
    space starts anew. Re-syncs the store to the fresh counter (see
    {!resync_store}). No-op when not down. *)

val resync_store : t -> unit
(** Make the current SA's counter the store's durable truth (a
    synchronous establishment write, superseding any in-flight SAVE of
    the old sequence space). Call after [install_sa] of a fresh SA on a
    sender that stayed up; without it a later reset would FETCH the
    dead sequence space's counter and leap far past the fresh one. *)

val set_degrade_handler : t -> (unit -> unit) -> unit
(** [f] runs when the recovery retry budget against a faulty store is
    exhausted: the SA should abandon SAVE/FETCH and re-establish —
    typically IKE, [install_sa], then {!resume_fresh}. Counted in
    [Metrics.degraded_reestablish]. Without a handler the sender stays
    down rather than resume from state it cannot trust. *)

val is_down : t -> bool

val is_recovering : t -> bool
(** Down with a wakeup (FETCH/SAVE, retries, or degraded
    re-establishment) in progress. [is_down && not is_recovering] after
    the scheduled wakeup time means the sender is wedged — the state
    {!Invariant} flags. *)

val next_seq : t -> int
(** The sequence number the next sent message will carry. *)

val last_stored : t -> int option
(** Durable value currently on disk (None for volatile senders). *)

val install_sa : t -> Resets_ipsec.Sa.t -> unit
(** Swap in a freshly negotiated SA (re-establishment baseline). *)

val sa : t -> Resets_ipsec.Sa.t
