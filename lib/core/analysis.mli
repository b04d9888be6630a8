(** Closed-form results from the paper, used as oracles by tests and
    printed alongside measurements by the benchmark harness. *)

(** {1 Section 5 bounds} *)

val max_lost_seqnos : kp:int -> int
(** Theorem (i): at most [2 * kp] sequence numbers become unusable per
    sender reset. *)

val max_fresh_discards : kq:int -> int
(** Theorem (ii): at most [2 * kq] fresh messages are discarded per
    receiver reset (no message loss assumed). *)

(** {1 Section 4's SAVE-interval rule} *)

val k_min : save_latency:Resets_sim.Time.t -> message_gap:Resets_sim.Time.t -> int
(** Minimum safe SAVE interval: the number of messages that can be
    sent (or received) during one SAVE — [ceil (T / g)]. The paper's
    example: 100 µs write, 4 µs per message gives 25. A [k] below this
    admits more than one SAVE in flight, breaking the Figure 1/2 gap
    accounting. @raise Invalid_argument on a non-positive gap. *)

val k_of_rates :
  t_save:Resets_sim.Time.t -> t_msg:Resets_sim.Time.t -> int
(** The paper's rule as a constructor for configuration: the smallest
    safe K for a SAVE that takes [t_save] against messages spaced
    [t_msg] — [max 1 (ceil (t_save / t_msg))]. This is {!k_min}
    clamped to at least 1 (an instantaneous SAVE still needs a
    positive interval). [run --kp auto], [run --kq auto] and the
    adaptive policy's re-derivation all go through this rule.
    @raise Invalid_argument on a non-positive [t_msg] or negative
    [t_save]. *)

val save_write_fraction : k:int -> float
(** Fraction of messages that trigger a persistent write, [1 / k]. *)

(** {1 Recovery-cost model (experiment E7)} *)

val reestablish_recovery_time : cost:Resets_ipsec.Ike.cost -> sa_count:int -> Resets_sim.Time.t
(** Sequentially renegotiating every SA of a reset host. *)

val reestablish_message_count : sa_count:int -> int
(** Wire messages a full renegotiation costs: one IKE handshake per
    SA. Compare {!save_fetch_message_count}. *)

val save_fetch_recovery_time :
  save_latency:Resets_sim.Time.t -> sa_count:int -> Resets_sim.Time.t
(** One FETCH (free in our model) plus one blocking SAVE per SA. *)

val save_fetch_message_count : sa_count:int -> int
(** 0 — recovery is local. *)

(** {1 Worst-case sequence-number loss, exact}

    [sender_loss ~kp ~reset_phase ~save_in_flight] computes the exact
    number of unusable sequence numbers for a reset striking
    [reset_phase] messages after the last SAVE trigger
    ([0 <= reset_phase < kp]), with the triggered SAVE either still in
    flight or completed — the two branches of Figure 1. Tests compare
    the simulator against this function point for point. *)

val sender_loss : kp:int -> reset_phase:int -> save_in_flight:bool -> int
(** Exact unusable-number count for one sender reset at the given
    phase; always ≤ {!max_lost_seqnos}[ ~kp]. *)

val receiver_discards : kq:int -> reset_phase:int -> save_in_flight:bool -> int
(** Same accounting at the receiver (Figure 2): how many in-gap fresh
    messages the recovered window rejects, assuming none were lost. *)
