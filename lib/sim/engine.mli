(** Deterministic discrete-event engine on a hierarchical timer wheel.

    Events fire in exact (time, insertion order) order, so two runs
    with the same inputs produce identical traces — the contract every
    committed artifact and the sharded-determinism gate depend on.
    Callbacks may schedule and cancel further events, including more
    events at the current instant (they fire after everything already
    pending there, in insertion order).

    The scheduler is a 13-level, 32-slot-per-level hierarchical timer
    wheel over integer nanoseconds: {!schedule_at}, {!schedule_after}
    and {!cancel} are O(1), and each event is cascaded toward its
    bottom-level slot at most once per level, independent of how many
    events are pending. This is what lets one engine carry the
    millions of concurrent SAVE timers, resume deadlines and link
    deliveries of a 10^5–10^6-SA shard; the legacy O(log n) heap
    scheduler survives as {!Engine_heap}, the differential-testing
    oracle and perf baseline. See DESIGN.md §2e for the wheel
    geometry, the cascade rules and the determinism argument.

    One geometric bound surfaces in the API: times at or beyond
    [max_int] nanoseconds (about 146 simulated years) are outside the
    wheel and are rejected by {!schedule_at}. *)

type t

type handle
(** A scheduled event; can be cancelled until it fires. *)

val create : ?hint:int -> unit -> t
(** [create ?hint ()] is an empty engine with the clock at zero.
    [hint] (the number of simultaneously pending events expected at
    steady state) pre-sizes the same-tick batch buffer. The wheel's
    slot array itself is fixed-size, so the hint matters much less
    here than to {!Engine_heap}, which presizes its event heap with
    it; the two engines keep one interface so the wheel-vs-heap
    differential drives both through the same signature. *)

val now : t -> Time.t
(** Current simulated time: the timestamp of the last fired event (or
    the [until] limit of the last {!run} that stopped on it, if
    later). *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> handle
(** Schedule a callback at absolute time [at]. O(1).
    @raise Invalid_argument when [at] is in the past, or at/beyond
    [max_int] ns (outside the wheel horizon). *)

val schedule_after : t -> after:Time.t -> (unit -> unit) -> handle
(** [schedule_after t ~after f] is
    [schedule_at t ~at:(Time.add (now t) after) f]. *)

val cancel : handle -> unit
(** Cancel a pending event. O(1); idempotent; no effect after the
    event fired. The slot entry is reclaimed when its tick is next
    visited, but it stops counting toward {!pending_count}
    immediately. *)

val is_pending : handle -> bool
(** [true] until the event fires or is cancelled. *)

val pending_count : t -> int
(** Number of not-yet-fired, not-cancelled events. O(1): the engine
    keeps a live counter, and cancelled slot entries are dropped when
    their tick is visited, so long runs that cancel many timers do not
    accumulate dead entries. *)

val fired_count : t -> int
(** Total events fired since {!create} — the denominator for
    events-per-second throughput measurements. *)

(** Why {!run} returned. *)
type stop_reason =
  | Quiescent  (** no events left *)
  | Time_limit  (** next event lies beyond [until] *)
  | Event_limit  (** fired [max_events] events *)
  | Stopped  (** a callback invoked [stop] *)

val run : ?until:Time.t -> ?max_events:int -> t -> stop_reason
(** Drain the queue. With [until], the clock is advanced to exactly
    [until] on a [Time_limit] stop so a subsequent [run] continues
    from there; events scheduled between that clock and the first
    still-pending instant remain fully ordered (the engine keeps a
    side channel for that gap — see DESIGN.md §2e). *)

val next_due : t -> Time.t option
(** Timestamp of the earliest pending event, without firing it —
    what a real-time poll loop sleeps until. Amortized O(1) (it may
    cascade wheel levels, work the eventual fire would do anyway). *)

val run_clocked :
  clock:Clock.t ->
  ?idle:(due:Time.t option -> unit) ->
  ?tick:(unit -> unit) ->
  ?until:Time.t ->
  ?max_events:int ->
  t ->
  stop_reason
(** Drive the wheel from a {!Clock}. With [Clock.virtual_] this {e is}
    {!run} — same code path, same determinism contract ([tick] is
    never called: the simulated path has no batching to flush). With a
    real clock, events fire once {!Clock.elapsed} passes their
    timestamp; after each burst of due events [tick] runs once — the
    engine-tick boundary where {!Resets_net.Transport_udp} flushes its
    tx batch — and between deadlines the engine calls [idle ~due]
    ([due] = the next pending timestamp, [None] when the wheel is
    empty) so the caller can block on I/O that may schedule new events
    — a daemon's socket poll. Without [idle] an empty wheel ends the
    run ([Quiescent]) and a non-empty one is busy-waited. [until]
    bounds the run in engine time (elapsed wall time for a real
    clock); [stop] works from both callbacks and [idle]. *)

val step : t -> bool
(** Fire the single next event; [false] when the queue is empty. *)

val stop : t -> unit
(** Request that the current {!run} return after the active
    callback. *)
