(** The SAVE-interval parameter K as a first-class policy.

    The paper's correctness argument hangs on one constant: K must
    satisfy K >= ceil(T_save / t_msg) (Section 5), yet T_save and t_msg
    are measured quantities that drift at runtime — disk latency varies
    with load and fault plans, send rate with the traffic model. This
    module turns the frozen [k : int] threaded through every layer into
    a policy handle with two implementations:

    - {!Static}: the paper's constant. Byte-identical to the historical
      plumbing — [current] and [leap] return the configured integers,
      observations are no-ops, and no PRNG or engine state is touched,
      so every committed BENCH artifact regenerates unchanged. This is
      the determinism-preserving default.
    - {!Adaptive}: re-derives K online from EWMA-percentile estimates
      of SAVE latency and inter-send gap (an SRTT/RTTVAR-style
      [ewma + gain * deviation] upper estimate, the classic EWMA
      percentile proxy), with a multiplicative headroom over the
      derived floor, a hysteresis dead-band so K does not chatter, and
      hard floor/ceiling clamps.

    A policy handle is mutable single-run state: build one per endpoint
    per run with {!make}. Observations are pure arithmetic — an
    adaptive policy never schedules engine events and never consumes a
    PRNG, so a run with a given seed remains deterministic. *)

type adaptive_config = {
  initial_k : int;  (** K before the first complete observation pair *)
  floor : int;  (** hard lower clamp on the derived K *)
  ceiling : int;  (** hard upper clamp; also bounds {!max_leap} *)
  alpha : float;  (** EWMA weight of a new observation, in (0, 1] *)
  deviation_gain : float;
      (** latency estimate = ewma + gain * mean_abs_deviation — the
          percentile proxy (gain 2.0 ~ p95 for near-normal noise) *)
  headroom : float;  (** derived K = ceil(headroom * T_est / gap_est) *)
  hysteresis : float;
      (** dead-band: K only moves when the derived value differs from
          the current one by more than [hysteresis * current] *)
}

type mode =
  | Static of { k : int; leap : int }
      (** the paper's constant; [leap] is normally [2 * k] but ablation
          benches override it *)
  | Adaptive of adaptive_config

val static : ?leap:int -> int -> mode
(** [static k] is [Static {k; leap = 2 * k}] (the paper's leap rule)
    unless [leap] overrides it. @raise Invalid_argument when [k <= 0]. *)

val adaptive :
  ?floor:int ->
  ?ceiling:int ->
  ?alpha:float ->
  ?deviation_gain:float ->
  ?headroom:float ->
  ?hysteresis:float ->
  initial_k:int ->
  unit ->
  mode
(** Defaults: floor 1, ceiling 4096, alpha 0.2, deviation_gain 2.0,
    headroom 1.2, hysteresis 0.25.
    @raise Invalid_argument on out-of-range parameters. *)

val bound_of_mode : mode -> int
(** A sound upper bound on the K the policy can ever report: [k] for
    [Static], [ceiling] for [Adaptive]. Convergence bounds (2K per
    reset) quoted against an adaptive run must use this. *)

val describe : mode -> string
(** ["25"] for static, ["auto:25"] (initial K) for adaptive — what
    {!Protocol.to_string} interpolates. *)

type t
(** A live policy instance (mutable per-run state). *)

val make : mode -> t
val mode : t -> mode
val is_adaptive : t -> bool

val current : t -> int
(** The SAVE interval to use now. Constant for static policies. *)

val leap : t -> int
(** The wakeup leap covering the worst durability lag since the last
    completed SAVE: the configured leap for static policies, and
    [2 * max K reported since the last {!note_durable}] for adaptive
    ones (a shrinking K must not shrink the leap below what the old,
    larger SAVE interval let the durable value lag by). *)

val max_leap : t -> int
(** Upper bound on {!leap} over the whole run — what the invariant
    monitor's skip bound and the convergence verdict use. *)

val observe_save_latency : t -> Resets_sim.Time.t -> unit
(** Feed one measured SAVE duration (begin-to-durable). No-op for
    static policies. *)

val observe_send_gap : t -> Resets_sim.Time.t -> unit
(** Feed one measured gap between consecutive sends (or fresh
    deliveries, on the receiver side). No-op for static policies. *)

val note_durable : t -> unit
(** A periodic SAVE completed: the durability lag window restarts, so
    an adaptive policy resets its leap high-water mark to the current
    K. No-op for static policies. *)

val derived_floor : t -> int option
(** ceil(headroom * T_est / gap_est) before clamping — the online
    version of the paper's K rule. [None] until both estimates exist
    or for static policies. *)

val adjustments : t -> int
(** How many times the adaptive controller actually moved K. 0 for
    static policies. *)

val observations : t -> int
(** Total latency + gap observations absorbed. 0 for static. *)
