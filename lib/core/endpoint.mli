(** One unidirectional SA association, fully wired.

    The single place the simulated datapath is assembled: SA key
    derivation, the link (with optional fault model and adversary tap),
    the {!Sender} (process p) driven by a traffic model, and the
    {!Receiver} (process q) attached to the link's deliver hook. Every
    scenario composer — {!Harness} (one SA, the paper's experiments),
    {!Multi_sa} (a host carrying many SAs), {!Bidirectional}
    (Section 6) — builds its topology out of these, so there is exactly
    one implementation of send/receive/persistence semantics to trust.

    Lifecycle (reset, wakeup) is exercised through the
    {!sender}/{!receiver} accessors — an endpoint adds wiring, not a
    second state machine. The one lifecycle step that spans both sides,
    re-establishing a fresh SA, is {!reestablish} and {!resume_fresh}. *)

open Resets_sim

(** What the on-path adversary does with its capture buffer. Shared by
    every composer so single-SA and multi-SA runs face the same
    attacks. *)
type attack =
  | No_attack
  | Replay_all_at of Time.t
      (** Section 3, first attack: inject every captured packet, in
          order. *)
  | Wedge_at of Time.t
      (** Section 3, third attack: replay the most recent packet. *)
  | Flood of { start : Time.t; gap : Time.t }
      (** sustained replay flood, one injection per [gap] *)

(** Whether to attach an adversary tap to the link. Tapping records
    every packet in transit, at a cost per captured packet;
    [capacity] bounds how many are retained (default [1 lsl 20]). Scale
    runs with thousands of endpoints leave it off unless the scenario
    actually attacks. *)
type tap =
  | No_tap
  | Tap of { capacity : int option }

type t

val create :
  ?trace:Trace.t ->
  ?sender_name:string ->
  ?receiver_name:string ->
  ?link_name:string ->
  ?payload:(seq:int -> string) ->
  ?framing:Resets_ipsec.Sa.framing ->
  ?window:int ->
  ?arena:Resets_ipsec.Sadb_flat.t ->
  ?faults:Link.faults ->
  ?link_jitter:Time.t ->
  ?link_prng:Resets_util.Prng.t ->
  ?tap:tap ->
  spi:int32 ->
  secret:string ->
  link_latency:Time.t ->
  traffic:Resets_workload.Traffic.t ->
  metrics:Metrics.t ->
  sender_persistence:Sender.persistence option ->
  receiver_persistence:Receiver.persistence option ->
  Engine.t ->
  t
(** Derives both sides' SA from [spi]/[secret] (the default
    algorithms in [framing], default [Seq64]; in slots of [arena] when
    given, else each in a private arena), creates the link, taps it
    (default: yes, retaining up to [1 lsl 20] packets), creates sender
    and receiver, and connects the deliver hook. [metrics]
    should be per-endpoint when many endpoints run in one engine:
    sequence numbers of distinct SAs overlap, and the delivery ledger
    is kept per metrics object.
    Construction order (link → adversary → sender → receiver) is part
    of the deterministic-replay contract. *)

val sender : t -> Sender.t
val receiver : t -> Receiver.t

val link : t -> Packet.t Link.t
(** The simulated link: the sender sends with {!Link.send}, the
    receiver is its deliver hook. Exposed for fault knobs ([set_up])
    and the adversary. *)

val adversary : t -> Packet.t Resets_attack.Adversary.t option
val metrics : t -> Metrics.t

val start : t -> unit
(** Start the sender's traffic loop. *)

val reestablish :
  t ->
  cost:Resets_ipsec.Ike.cost ->
  prng:Resets_util.Prng.t ->
  spi:int32 ->
  on_installed:(unit -> unit) ->
  unit
(** Renegotiate the association with IKE-lite (the live SA's
    algorithms and framing, the endpoint's window width, in its arena
    when it has one) and install the fresh SA on both sides; then
    [on_installed]. The re-establishment fallback of every composer. *)

val resume_fresh : t -> unit
(** After {!reestablish}: a side that is down comes up on the fresh SA
    ({!Receiver.resume_at} edge 0, {!Sender.resume_fresh}); a side that
    stayed up re-syncs its store to the fresh counter. *)

val injected_count : t -> int
(** Packets the adversary injected (0 without a tap). *)

val schedule_attack : t -> message_gap:Time.t -> attack -> unit
(** Schedule the attack on this endpoint's link. [message_gap] paces
    [Replay_all_at] injections. @raise Invalid_argument when an attack
    is requested on an endpoint created with [No_tap]. *)
