open Resets_sim

type persistence = {
  save_latency : Time.t;
  save_timer : Time.t option;
  policy : K_policy.mode;
}

(* The paper's measured write-to-file latency on its reference machine. *)
let default_save_latency = Time.of_us 100

type t =
  | Save_fetch of {
      sender : persistence;
      receiver : persistence;
      robust_receiver : bool;
      wakeup_buffer : bool;
    }
  | Volatile
  | Reestablish of { cost : Resets_ipsec.Ike.cost }

let save_fetch ?(robust_receiver = false) ?(wakeup_buffer = true)
    ?(save_latency = default_save_latency) ?save_timer_p ?policy_p ?policy_q ~kp
    ~kq () =
  let policy k = function Some m -> m | None -> K_policy.static k in
  Save_fetch
    {
      sender =
        { save_latency; save_timer = save_timer_p; policy = policy kp policy_p };
      receiver = { save_latency; save_timer = None; policy = policy kq policy_q };
      robust_receiver;
      wakeup_buffer;
    }

let to_string = function
  | Save_fetch { sender; receiver; robust_receiver; _ } ->
    Printf.sprintf "save-fetch(Kp=%s, Kq=%s%s)"
      (K_policy.describe sender.policy)
      (K_policy.describe receiver.policy)
      (if robust_receiver then ", robust" else "")
  | Volatile -> "volatile"
  | Reestablish _ -> "reestablish"

let pp ppf t = Format.pp_print_string ppf (to_string t)
