(** One counter's durable side: the paper's SAVE/FETCH augmentation
    (Section 4), written once for process p's sequence number and
    process q's window edge.

    - every [K] messages a {e background} SAVE of the counter begins;
      the endpoint keeps running while it is in flight, and a failed
      write rolls the threshold back so progress re-triggers it;
    - at wakeup the endpoint FETCHes the durable value, adds the leap
      and SAVEs the result {e blocking}: it resumes only once that
      value is durable. FETCH and SAVE are retried with a capped
      backoff against a faulty store, and once the retry budget is
      spent the counter degrades to the re-establishment handler.

    {!Sender} and {!Receiver} each drive one machine when they have
    persistence and none when volatile. What stays theirs is what
    differs: p's send loop, timer trigger and stall guard; q's window,
    bounded slide and wakeup buffer. *)

type t

val retries : int
(** The recovery retry budget every caller uses (3): how many times a
    wakeup FETCH or SAVE, or q's catch-up SAVE, is attempted against a
    faulty store before the counter degrades. *)

val backoff : Resets_sim.Time.t -> int -> Resets_sim.Time.t
(** [backoff base n] is the wait before retry [n + 1]: [2^n] disk
    latencies [base], capped at 8. *)

val create :
  ?trace:Resets_sim.Trace.t ->
  name:string ->
  store:Resets_persist.Store.t ->
  key:string ->
  policy:K_policy.t ->
  retries:int ->
  metrics:Metrics.t ->
  initial:int ->
  Resets_sim.Engine.t ->
  t
(** A machine whose durable value is [initial] (the caller preloads
    the store when establishment state is fresh). Trace events are
    recorded under [name], the endpoint's. *)

val save_if_due : t -> int -> unit
(** The count trigger: begin a background SAVE of [v] when it has
    grown [K_policy.current] past the last SAVE begun. *)

val save_now : t -> int -> unit
(** Begin a background SAVE of [v] unconditionally (p's timer trigger
    and stall re-issue). *)

val observe_gap : t -> unit
(** Feed the time since the previous call to the policy's gap estimate
    (a send for p, a fresh delivery for q). Under a static policy,
    which has no estimate, it does nothing and allocates nothing. *)

val crash : t -> unit
(** A reset: the flags, the held [on_ready] and the last gap instant
    are RAM and go; the store loses its in-flight writes. *)

val wakeup :
  t -> missing:int -> on_ready:(unit -> unit) -> resume:(int -> unit) -> unit
(** FETCH (checked; [missing] stands in for an absent record), leap,
    then a blocking SAVE, each retried with {!backoff} while this
    wakeup is in progress: a retry left by a wakeup that a reset
    aborted does nothing in the next one. On success [resume v] brings the endpoint up at
    [v] and [on_ready] fires. [on_ready] is held until then, or until
    {!fire_ready} after a degraded re-establishment. *)

val fire_ready : t -> unit
(** Fire (once) the [on_ready] a wakeup holds, if any. *)

val resync : t -> int -> unit
(** A fresh SA was installed: [v] becomes the store's durable value
    (an establishment write, superseding any in-flight SAVE) and the
    machine forgets failures and a wakeup in progress. *)

val made_durable : t -> int -> unit
(** [v] became durable through {!write} (q's catch-up SAVE). *)

val write :
  t -> int -> on_error:(unit -> unit) -> on_complete:(unit -> unit) -> unit
(** One SAVE of [v] under the counter's key with no bookkeeping: q's
    catch-up SAVE, which reports back through {!made_durable} and
    {!degrade}. *)

val degrade : t -> unit
(** The retry budget is spent: count it, then hand the association to
    the degrade handler when one is set. *)

val set_degrade_handler : t -> (unit -> unit) -> unit

val budget : t -> int
(** The retry budget this counter was created with. *)

val failing : t -> bool
(** A background SAVE failed and none has succeeded since. *)

val pending : t -> bool
(** A background SAVE is in flight. *)

val waking : t -> bool
(** A wakeup (FETCH, SAVE, retries or degraded re-establishment) is in
    progress. *)

val last_begun : t -> int
(** The value of the last SAVE begun. *)

val horizon : t -> int
(** The durable value plus the current leap: how far the counter may
    run before a reset would resume below it. *)

val stored : t -> int option
(** What the store holds now. *)
