open Resets_sim

let max_lost_seqnos ~kp = 2 * kp
let max_fresh_discards ~kq = 2 * kq

let k_min ~save_latency ~message_gap =
  let t = Int64.to_float (Time.to_ns save_latency) in
  let g = Int64.to_float (Time.to_ns message_gap) in
  if g <= 0. then invalid_arg "Analysis.k_min: message gap must be positive";
  int_of_float (Float.ceil (t /. g))

let k_of_rates ~t_save ~t_msg =
  if Time.(t_msg <= Time.zero) then
    invalid_arg "Analysis.k_of_rates: t_msg must be positive";
  if Time.(t_save < Time.zero) then
    invalid_arg "Analysis.k_of_rates: t_save must be non-negative";
  max 1 (k_min ~save_latency:t_save ~message_gap:t_msg)

let save_write_fraction ~k =
  if k <= 0 then invalid_arg "Analysis.save_write_fraction: k must be positive";
  1. /. float_of_int k

let reestablish_recovery_time ~cost ~sa_count =
  Time.mul (Resets_ipsec.Ike.handshake_duration cost) sa_count

let reestablish_message_count ~sa_count = Resets_ipsec.Ike.message_count * sa_count

let save_fetch_recovery_time ~save_latency ~sa_count = Time.mul save_latency sa_count

let save_fetch_message_count ~sa_count:_ = 0

(* Figure 1, exact. Let the last SAVE trigger be at stored value v (the
   next-to-send number at trigger time); the reset strikes when the
   next-to-send number is v + reset_phase. FETCH returns v if that SAVE
   completed, v - kp otherwise (the previous stored value). The sender
   resumes at fetched + 2 kp; the unusable numbers are those in
   [v + reset_phase, fetched + 2 kp). *)
let sender_loss ~kp ~reset_phase ~save_in_flight =
  if reset_phase < 0 || reset_phase >= kp then
    invalid_arg "Analysis.sender_loss: reset_phase must be in [0, kp)";
  let fetched_behind = if save_in_flight then kp else 0 in
  ((2 * kp) - fetched_behind) - reset_phase

(* Figure 2 mirrors Figure 1 with r in place of s; a discarded in-gap
   fresh message corresponds one-to-one to an unusable number. *)
let receiver_discards ~kq ~reset_phase ~save_in_flight =
  if reset_phase < 0 || reset_phase >= kq then
    invalid_arg "Analysis.receiver_discards: reset_phase must be in [0, kq)";
  let fetched_behind = if save_in_flight then kq else 0 in
  ((2 * kq) - fetched_behind) - reset_phase
