(** Dead-peer detection (the heartbeat scheme the paper cites in its
    Section 6 discussion of prolonged resets).

    Periodically sends a probe; if [max_misses] consecutive probes go
    unanswered within [timeout], declares the peer dead. A probe is
    "answered" when the owner calls {!probe_acked} (normally from the
    receive path). *)

type config = {
  interval : Resets_sim.Time.t;  (** time between probes *)
  timeout : Resets_sim.Time.t;  (** how long to wait for each ack *)
  max_misses : int;  (** consecutive misses before declaring death *)
}

val default_config : config

type t

val create :
  Resets_sim.Engine.t ->
  config ->
  send_probe:(unit -> unit) ->
  on_dead:(unit -> unit) ->
  t

val start : t -> unit
(** Begin probing. @raise Invalid_argument if already started. *)

val stop : t -> unit
(** Cancel outstanding probes and timers. *)

val probe_acked : t -> unit
(** The peer answered; resets the miss counter. Also revives a [t] that
    had declared the peer dead (the peer woke up). *)

val is_dead : t -> bool

val misses : t -> int
(** Current consecutive miss count. *)
