open Resets_workload

type verdict = {
  no_replay_accepted : bool;
  no_duplicate_delivery : bool;
  no_seqno_reuse : bool;
  skipped_within_bound : bool;
  discards_within_bound : bool;
  delivery_resumed : bool;
}

let holds v =
  v.no_replay_accepted && v.no_duplicate_delivery && v.no_seqno_reuse
  && v.skipped_within_bound && v.discards_within_bound && v.delivery_resumed

let check ~(scenario : Harness.scenario) (result : Harness.result) =
  let m = result.Harness.metrics in
  (* Stealth attacks carry their own forced sender resets: the 2K
     budgets scale with what the run actually experienced. *)
  let all_resets = Harness.effective_resets scenario in
  let resets_of target =
    List.length
      (List.filter (fun ev -> ev.Reset_schedule.target = target) all_resets)
  in
  let p_resets = resets_of Reset_schedule.Sender in
  let q_resets = resets_of Reset_schedule.Receiver in
  let skipped_bound, discard_bound =
    match scenario.Harness.protocol with
    | Protocol.Save_fetch { sender; receiver; _ } ->
      (* For adaptive policies the worst-case K is the ceiling — the
         bound the online controller can never exceed. *)
      let kp = K_policy.bound_of_mode sender.Protocol.policy in
      let kq = K_policy.bound_of_mode receiver.Protocol.policy in
      ( Some (p_resets * Analysis.max_lost_seqnos ~kp),
        Some (q_resets * Analysis.max_fresh_discards ~kq) )
    | Protocol.Volatile | Protocol.Reestablish _ -> (None, None)
  in
  let within bound value =
    match bound with
    | None -> true
    | Some b -> value <= b
  in
  let last_reset_at =
    List.fold_left
      (fun acc ev -> Resets_sim.Time.max acc ev.Reset_schedule.at)
      Resets_sim.Time.zero all_resets
  in
  let traffic_after_last_reset =
    (* Liveness is vacuous when the scenario stops fresh traffic before
       the last reset (the staged replay attacks do this). *)
    match scenario.Harness.sender_stop_at with
    | Some stop -> Resets_sim.Time.(last_reset_at < stop)
    | None -> true
  in
  let delivery_resumed =
    (* Every reset's disruption window was closed by a delivery. *)
    all_resets = []
    || (not traffic_after_last_reset)
    || Resets_util.Stats.Sample.count m.Metrics.disruption_times
       >= List.length all_resets
  in
  {
    no_replay_accepted = m.Metrics.replay_accepted = 0;
    no_duplicate_delivery = m.Metrics.duplicate_deliveries = 0;
    no_seqno_reuse = m.Metrics.reused_seqnos = 0;
    skipped_within_bound = within skipped_bound m.Metrics.skipped_seqnos;
    discards_within_bound = within discard_bound m.Metrics.fresh_rejected_undelivered;
    delivery_resumed;
  }

let pp ppf v =
  let flag name b = Format.fprintf ppf "%s=%s " name (if b then "ok" else "FAIL") in
  flag "no-replay" v.no_replay_accepted;
  flag "no-dup" v.no_duplicate_delivery;
  flag "no-reuse" v.no_seqno_reuse;
  flag "skip<=2Kp" v.skipped_within_bound;
  flag "discard<=2Kq" v.discards_within_bound;
  flag "resumed" v.delivery_resumed
