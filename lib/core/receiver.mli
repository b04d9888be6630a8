(** Process q: the receiving endpoint.

    Runs the paper's augmented process q when given a persistence
    configuration, and the volatile Section 2/3 process when not:

    - while up, decapsulates each arriving ESP packet (bad ICVs are
      discarded before any window processing), classifies the sequence
      number against the anti-replay window, delivers or discards, and
      every [k] advance of the right edge begins a background SAVE;
    - {!reset} crashes the host: RAM (window, counters) and the
      in-flight SAVE are lost; packets arriving while down are lost;
    - {!wakeup} recovers: FETCH, add the leap, SAVE the result
      blocking; packets arriving during that SAVE are buffered (the
      paper's choice) or dropped, per configuration; then the window
      resumes with every number up to the recovered edge assumed seen.

    The [robust] flag implements the bounded-slide rule our model
    checker showed necessary when the right edge can jump more than
    [k] in one packet (sender leap, loss, reordering): a packet that
    would push the edge beyond [durable + leap] is held back while an
    urgent SAVE of the new edge runs, and processed once it is durable.
    See DESIGN.md §5 and the E11 experiments.

    The SAVE/FETCH side is a {!Durable} machine, the one {!Sender}
    drives too; what is q's own is decap, the window, the bounded
    slide and the wakeup buffer. *)

type persistence = {
  store : Resets_persist.Store.t;
      (** the persistent medium — {!Resets_persist.Sim_disk.store} in
          simulation, {!Resets_persist.File_store.store} in the wire
          daemon *)
  key : string;  (** store key this receiver's edge lives under — lets
                     many receivers share one store (multi-SA hosts) *)
  policy : K_policy.t;
      (** the SAVE-interval policy: [K_policy.current] replaces the
          historical frozen [k], [K_policy.leap] the frozen [2k] wakeup
          leap. Build with [K_policy.make (K_policy.static k)] for the
          paper's constant. *)
  robust : bool;
  wakeup_buffer : bool;
  retries : int;
      (** recovery retry budget: how many times a wakeup FETCH or SAVE
          (and the urgent catchup SAVE) is attempted against a faulty
          store before the SA degrades to re-establishment; every
          caller passes {!Durable.retries} *)
}

type t

val create :
  ?name:string ->
  ?trace:Resets_sim.Trace.t ->
  ?framing:Packet.framing ->
  ?preload_store:bool ->
  sa:Resets_ipsec.Sa.t ->
  metrics:Metrics.t ->
  persistence:persistence option ->
  Resets_sim.Engine.t ->
  t
(** [framing] must match the sender's (default [Seq64]). Under [Esn32]
    the full sequence number is inferred from the window edge before
    ICV verification, per RFC 4304. [preload_store:false] skips the
    establishment write of the initial edge — for a daemon restarting
    against a store that already holds the previous incarnation's edge
    (it then recovers via {!reset} + {!wakeup}). *)

val on_packet : t -> Packet.t -> unit
(** Feed one arriving packet: the link's deliver hook
    ({!Resets_sim.Link.set_deliver}) in simulation, the daemon's
    socket handler on the wire. *)

val on_deliver : t -> (seq:int -> payload:Resets_util.Slice.t -> unit) -> unit
(** Register an application-level consumer of delivered payloads. The
    slice views the SA's decap scratch buffer: it is valid only for
    the duration of the hook — consumers that keep the bytes must
    [Slice.to_string] their own copy. *)

val reset : t -> unit
val wakeup : t -> ?on_ready:(unit -> unit) -> unit -> unit
(** @raise Invalid_argument when not down. *)

val resume_at : t -> edge:int -> unit
(** Come up immediately with the window resumed at [edge], skipping the
    per-receiver FETCH + blocking SAVE. For host-managed recovery where
    the edge was computed and persisted externally: a coalesced snapshot
    covering many SAs, or a freshly negotiated SA (edge 0). Re-syncs
    this receiver's own store (if any) to [edge] — see {!resync_store} —
    and drains the wakeup buffer.
    @raise Invalid_argument when not down. *)

val resync_store : t -> unit
(** Make the current window edge the store's durable truth (a
    synchronous establishment write, superseding any in-flight SAVE of
    the old sequence space). Call after [install_sa] of a fresh SA on a
    receiver that stayed up; without it a later reset would FETCH the
    dead sequence space's edge and resume far ahead of the sender. *)

val set_degrade_handler : t -> (unit -> unit) -> unit
(** [f] runs when the retry budget against a faulty store is exhausted:
    the SA should abandon SAVE/FETCH recovery and re-establish (fresh
    keys, fresh window) — typically IKE followed by [install_sa] and
    [resume_at ~edge:0]. Counted in [Metrics.degraded_reestablish].
    Without a handler the receiver keeps the protocol's own retry pace
    and never comes up on untrusted state. *)

val is_down : t -> bool

val is_recovering : t -> bool
(** A wakeup (FETCH/SAVE, retries, or degraded re-establishment) is in
    progress. [is_down && not is_recovering] after the scheduled wakeup
    time means the receiver is wedged — the state {!Invariant} flags. *)

val right_edge : t -> int
val last_stored : t -> int option
val install_sa : t -> Resets_ipsec.Sa.t -> unit
val sa : t -> Resets_ipsec.Sa.t
