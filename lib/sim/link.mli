(** Unidirectional network link with delay, jitter, loss, reordering
    and duplication: the one channel model, on every simulated path and
    on the daemon's impaired wire.

    The paper's channel "may lose or reorder" messages and hosts an
    adversary who "can insert … a copy of any message that was sent
    earlier"; {!on_transit} exposes every packet to observers (the
    adversary's recorder), and {!inject} lets an observer insert
    packets of its own.

    A link schedules its deliveries on an {!Engine}, whatever drives
    that engine: virtual time in simulation, or a real monotonic clock
    under {!Engine.run_clocked}, where the daemon's impaired wire runs
    one link per SA in front of its socket and a reordered frame
    leaves its delay later in wall-clock time. *)

type 'a t
(** A link carrying packets of type ['a]; delivery order and
    timing are driven entirely by the {!Engine}, so runs on virtual
    time are reproducible. *)

(** Gilbert–Elliott correlated burst loss: a two-state (good/bad)
    Markov chain stepped once per sent packet, with a per-state loss
    probability. Mean burst length is [1 / p_bg] packets; stationary
    badness [p_gb / (p_gb + p_bg)]. Composes with [loss_prob] (a packet
    is dropped when either says so). *)
type burst_loss = {
  p_gb : float;  (** good → bad transition probability *)
  p_bg : float;  (** bad → good transition probability *)
  good_loss : float;  (** loss probability while good (usually 0) *)
  bad_loss : float;  (** loss probability while bad (usually near 1) *)
}

(** Independent per-packet fault probabilities, sampled once per
    {!send} from the link's PRNG. *)
type faults = {
  loss_prob : float;  (** i.i.d. drop probability *)
  dup_prob : float;  (** probability a packet is delivered twice *)
  reorder_prob : float;  (** probability a packet takes the slow path *)
  reorder_delay : Time.t;  (** extra delay on the slow path *)
  burst : burst_loss option;  (** correlated burst-loss mode *)
}

val no_faults : faults
(** All probabilities zero, no burst mode: a perfect link. *)

val faults_of_string : string -> (faults, string) result
(** The fault grammar, comma-separated fields:
    - [drop=P] sets [loss_prob];
    - [dup=P] sets [dup_prob];
    - [reorder=P:DURATION] sets [reorder_prob] and [reorder_delay]
      (the duration as {!Time.duration_of_string} reads it, e.g.
      [10ms]);
    - [ge=ENTER:EXIT:DROP] sets [burst] to
      [{ p_gb = ENTER; p_bg = EXIT; good_loss = 0; bad_loss = DROP }].

    [""] is {!no_faults}. Unknown fields, [reorder=P] without a delay
    and any probability that is not finite or not in \[0, 1\] are
    refused, with a message that starts with the field's name. *)

val faults_to_string : faults -> string
(** The grammar's form of a spec, without spaces, omitting fields at
    their {!no_faults} value ([""] for {!no_faults}).
    {!faults_of_string} reads it back to the same spec for every spec
    the grammar can express: [good_loss] is not printed. *)

val create :
  ?name:string ->
  ?trace:Trace.t ->
  ?faults:faults ->
  ?jitter:Time.t ->
  ?prng:Resets_util.Prng.t ->
  latency:Time.t ->
  Engine.t ->
  'a t
(** A link with base one-way [latency] plus uniform [jitter]. Faults
    and jitter need a [prng]; omitting it with non-zero faults raises
    [Invalid_argument]. *)

val set_deliver : 'a t -> ('a -> unit) -> unit
(** Install the receive handler (the far endpoint). Packets arriving
    while no handler is installed are counted as dropped. *)

val send : 'a t -> 'a -> unit
(** Enqueue a packet at the near end. *)

val inject : 'a t -> 'a -> unit
(** Adversarial insertion: delivered like a normal packet but not
    reported to {!on_transit} observers (the adversary need not see its
    own packets) and never randomly dropped or reordered (the adversary
    times its own injections). A downed link still drops it — and
    counts it in {!dropped} — like everything else. *)

val on_transit : 'a t -> ('a -> unit) -> unit
(** Observe every legitimately sent packet (even ones later lost — an
    on-path adversary sees the wire before the drop). *)

val set_up : 'a t -> bool -> unit
(** A downed link drops everything sent through it — {!send} and
    {!inject} alike, all counted in {!dropped}. *)

val sent : 'a t -> int
(** Packets handed to {!send} (injections not included). *)

val delivered : 'a t -> int
(** Packets actually handed to the receive handler, duplicates and
    injections included. *)

val dropped : 'a t -> int
(** Every packet the link lost, whatever the cause: random loss, burst
    loss, a downed link, or no delivery handler installed. *)

val duplicated : 'a t -> int
(** Packets delivered a second time by the duplication fault. *)

val reordered : 'a t -> int
(** Packets that took the slow (extra-delay) path. *)

val injected : 'a t -> int
(** Adversarial packets inserted through {!inject}. *)

val burst_dropped : 'a t -> int
(** The subset of {!dropped} charged to the Gilbert–Elliott bad
    state. *)
