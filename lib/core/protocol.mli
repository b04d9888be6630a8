(** Protocol variants under study. *)

type persistence = {
  save_latency : Resets_sim.Time.t;  (** the paper's Tp / Tq *)
  save_timer : Resets_sim.Time.t option;
      (** [None] = the paper's message-counted trigger; [Some dt] saves
          on a fixed timer instead (the ablation Section 4 argues
          against; see E13) *)
  policy : K_policy.mode;
      (** K and the wakeup leap: [K_policy.static k] is the paper's
          constant K with its 2K leap (a [~leap] override exists for
          the ablation benches); [Adaptive _] re-derives K online from
          observed SAVE latency and send gaps — see {!K_policy}. *)
}

val default_save_latency : Resets_sim.Time.t
(** The paper's 100 µs write-to-file figure. *)

type t =
  | Save_fetch of {
      sender : persistence;
      receiver : persistence;
      robust_receiver : bool;
          (** bound the window slide by durable state + leap (our fix
              for the combined-reset corner found by the model checker;
              see DESIGN.md and Apn.Models) *)
      wakeup_buffer : bool;
          (** buffer packets arriving during the wakeup SAVE (the
              paper's choice); [false] drops them instead (ablation) *)
    }  (** the paper's Section 4 protocol *)
  | Volatile  (** Section 2/3 baseline: resets forget everything *)
  | Reestablish of { cost : Resets_ipsec.Ike.cost }
      (** IETF baseline: delete the SA on reset and renegotiate it at
          wakeup *)

val save_fetch :
  ?robust_receiver:bool ->
  ?wakeup_buffer:bool ->
  ?save_latency:Resets_sim.Time.t ->
  ?save_timer_p:Resets_sim.Time.t ->
  ?policy_p:K_policy.mode ->
  ?policy_q:K_policy.mode ->
  kp:int ->
  kq:int ->
  unit ->
  t
(** [policy_p] defaults to [K_policy.static kp] and [policy_q] to
    [K_policy.static kq]; a policy passed in takes the place of its K.
    The save latency defaults to {!default_save_latency}.
    @raise Invalid_argument when a defaulted K is not positive. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
