(** Legacy binary-heap discrete-event scheduler — the reference oracle.

    This is the original [O(log n)] {!Engine} implementation, kept with
    the same interface and the same observable contract after the
    timer-wheel rewrite for two jobs:

    - {b differential testing}: the qcheck suite replays one random
      schedule/cancel stream through both engines and requires
      identical fire orders (see [test/test_engine_wheel.ml] and the
      wheel-vs-heap smoke in [scripts/check.sh]);
    - {b baselining}: the MICRO bench measures events/sec against this
      engine at growing pending counts, and E14 extrapolates the
      [O(log n)] trend to one million SAs to quantify the wheel's win.

    Production code composes against {!Engine}; nothing outside tests
    and the bench should use this module. The ordering contract is the
    one documented there: events fire in (time, insertion order). *)

type t

type handle
(** A scheduled event; can be cancelled until it fires. *)

val create : ?hint:int -> unit -> t
(** [hint] pre-sizes the event heap (number of simultaneously pending
    events expected at steady state) so large simulations skip the
    backing-store re-growth walk. *)

val now : t -> Time.t
(** Current simulated time: the timestamp of the last fired event. *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> handle
(** Schedule a callback at absolute time [at].
    @raise Invalid_argument when [at] is in the past. *)

val schedule_after : t -> after:Time.t -> (unit -> unit) -> handle
(** [schedule_after t ~after f] is
    [schedule_at t ~at:(Time.add (now t) after) f]. *)

val cancel : handle -> unit
(** Idempotent; no effect after the event fired. *)

val is_pending : handle -> bool
(** [true] until the event fires or is cancelled. *)

val pending_count : t -> int
(** Number of not-yet-fired, not-cancelled events. O(1): the engine
    keeps a live counter and eagerly drops cancelled entries when they
    reach the heap top. *)

val fired_count : t -> int
(** Total events fired since [create]. *)

type stop_reason =
  | Quiescent  (** no events left *)
  | Time_limit  (** next event lies beyond [until] *)
  | Event_limit  (** fired [max_events] events *)
  | Stopped  (** a callback invoked [stop] *)

val run : ?until:Time.t -> ?max_events:int -> t -> stop_reason
(** Drain the queue. With [until], the clock is advanced to exactly
    [until] on a [Time_limit] stop so a subsequent [run] continues from
    there. *)

val step : t -> bool
(** Fire the single next event; [false] when the queue is empty. *)

val stop : t -> unit
(** Request that the current [run] return after the active callback. *)
