(* ipsec-resets: command-line driver for the reproduction.

   Subcommands:
     run      one harness scenario (protocol, faults, attack from flags)
     explore  bounded model checking of the APN protocol models
     bidir    the Section 6 prolonged-reset scheme
     kmin     the Section 4 SAVE-interval table
     trace    run a small scenario and dump the event trace

   Observability: `run --json` prints the machine-readable metrics
   record (same schema as the BENCH_*.json artifacts, see
   EXPERIMENTS.md); `run --trace-out FILE` / `trace --trace-out FILE`
   write the event trace as JSONL. *)

open Cmdliner
open Resets_core
open Resets_sim
open Resets_workload

(* ------------------------------------------------------------------ *)
(* Shared argument parsers *)

let time_of_ms f = Time.of_ns (Int64.of_float (f *. 1e6))

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let horizon_arg =
  Arg.(
    value
    & opt float 100.
    & info [ "horizon" ] ~docv:"MS" ~doc:"Simulation horizon in milliseconds.")

let protocol_arg =
  let doc =
    "Recovery discipline: $(b,save-fetch) (the paper), $(b,volatile) (Section 2 \
     baseline), $(b,reestablish) (IETF baseline), or $(b,robust) (save-fetch with \
     the bounded-slide receiver)."
  in
  Arg.(
    value
    & opt (enum
             [
               ("save-fetch", `Save_fetch);
               ("volatile", `Volatile);
               ("reestablish", `Reestablish);
               ("robust", `Robust);
             ])
        `Save_fetch
    & info [ "protocol" ] ~docv:"P" ~doc)

(* A SAVE interval is a positive count or the literal "auto": derive
   the Section 4 floor ceil(T_save / t_msg) from --save-latency and
   --gap. Explicit counts below that floor are rejected (the paper's
   safety argument needs K >= kmin); "auto" always lands on it. *)
let k_auto_conv =
  let parse s =
    match s with
    | "auto" -> Ok `Auto
    | _ -> (
      match int_of_string_opt s with
      | Some v when v > 0 -> Ok (`Fixed v)
      | Some v -> Error (`Msg (Printf.sprintf "K must be positive, got %d" v))
      | None -> Error (`Msg (Printf.sprintf "%S is not a count or \"auto\"" s)))
  in
  let print ppf = function
    | `Auto -> Format.pp_print_string ppf "auto"
    | `Fixed v -> Format.pp_print_int ppf v
  in
  Arg.conv (parse, print)

(* [None] means "flag absent": the default applies unvalidated, so a
   run that only turns a latency knob keeps working; an explicit count
   is held to the floor. *)
let k_arg name default =
  Arg.(
    value
    & opt (some k_auto_conv) None
    & info [ name ] ~docv:"K"
        ~doc:
          (Printf.sprintf
             "SAVE interval %s (default %d): a count, or $(b,auto) to derive \
              the floor ceil(T_save/t_msg) from --save-latency and --gap. \
              Explicit counts below the floor are rejected."
             name default))

let gap_arg =
  Arg.(
    value
    & opt float 4.
    & info [ "gap" ] ~docv:"US" ~doc:"Inter-message gap in microseconds.")

let save_latency_arg =
  Arg.(
    value
    & opt float 100.
    & info [ "save-latency" ] ~docv:"US" ~doc:"SAVE (disk write) latency in microseconds.")

let reset_arg =
  Arg.(
    value
    & opt_all (pair ~sep:'@' (enum [ ("p", Reset_schedule.Sender); ("q", Reset_schedule.Receiver) ]) float) []
    & info [ "reset" ] ~docv:"HOST@MS"
        ~doc:"Reset host $(b,p) or $(b,q) at the given millisecond (repeatable).")

let downtime_arg =
  Arg.(
    value
    & opt float 1.
    & info [ "downtime" ] ~docv:"MS" ~doc:"How long a reset host stays down (ms).")

(* The attack plan is parsed by cmdliner itself (a bad plan is a usage
   error, reported before anything runs); the flood's injection gap is
   only known once --gap is parsed, so the conv carries the raw
   trigger time and [build_attack] finishes the job. *)
let attack_conv =
  let parse s =
    let timed tag ms k =
      match float_of_string_opt ms with
      | Some f when f >= 0. -> Ok (k f)
      | Some _ | None ->
        Error (`Msg (Printf.sprintf "bad time in attack plan %s@%s" tag ms))
    in
    match String.split_on_char '@' s with
    | [ "none" ] -> Ok `No_attack
    | [ "replay-all"; ms ] -> timed "replay-all" ms (fun f -> `Replay_all f)
    | [ "wedge"; ms ] -> timed "wedge" ms (fun f -> `Wedge f)
    | [ "flood"; ms ] -> timed "flood" ms (fun f -> `Flood f)
    | [ "stealth-save-drop"; ms ] ->
      timed "stealth-save-drop" ms (fun f -> `Stealth_save_drop f)
    | [ "stealth-reset-storm"; ms ] ->
      timed "stealth-reset-storm" ms (fun f -> `Stealth_reset_storm f)
    | [ "stealth-recovery-jam"; ms ] ->
      timed "stealth-recovery-jam" ms (fun f -> `Stealth_recovery_jam f)
    | _ -> Error (`Msg (Printf.sprintf "unknown attack plan %S" s))
  in
  let print ppf = function
    | `No_attack -> Format.pp_print_string ppf "none"
    | `Replay_all f -> Format.fprintf ppf "replay-all@%g" f
    | `Wedge f -> Format.fprintf ppf "wedge@%g" f
    | `Flood f -> Format.fprintf ppf "flood@%g" f
    | `Stealth_save_drop f -> Format.fprintf ppf "stealth-save-drop@%g" f
    | `Stealth_reset_storm f -> Format.fprintf ppf "stealth-reset-storm@%g" f
    | `Stealth_recovery_jam f -> Format.fprintf ppf "stealth-recovery-jam@%g" f
  in
  Arg.conv (parse, print)

(* Stealth plans force [--attack-resets] sender resets of [--downtime]
   each; the jam/reset timing itself is derived from the protocol's own
   SAVE cadence inside the harness. *)
let build_attack ~gap ~downtime ~stealth_resets = function
  | `No_attack -> Harness.No_attack
  | `Replay_all f -> Harness.Replay_all_at (time_of_ms f)
  | `Wedge f -> Harness.Wedge_at (time_of_ms f)
  | `Flood f -> Harness.Flood { start = time_of_ms f; gap }
  | `Stealth_save_drop f ->
    Harness.Stealth_save_drop
      { from = time_of_ms f; resets = stealth_resets; downtime }
  | `Stealth_reset_storm f ->
    Harness.Stealth_reset_storm
      { from = time_of_ms f; resets = stealth_resets; downtime }
  | `Stealth_recovery_jam f ->
    Harness.Stealth_recovery_jam
      { from = time_of_ms f; resets = stealth_resets; downtime }

let attack_arg =
  let doc =
    "Adversary plan: $(b,none), $(b,replay-all@MS), $(b,wedge@MS), \
     $(b,flood@MS), or a goodput-degradation plan $(b,stealth-save-drop@MS), \
     $(b,stealth-reset-storm@MS), $(b,stealth-recovery-jam@MS) (safety-clean: \
     nothing injected, the link is jammed and resets forced phase-locked to \
     the SAVE cadence; see --attack-resets)."
  in
  Arg.(value & opt attack_conv `No_attack & info [ "attack" ] ~docv:"PLAN" ~doc)

let attack_resets_arg =
  Arg.(
    value
    & opt int 3
    & info [ "attack-resets" ] ~docv:"N"
        ~doc:"How many sender resets a stealth attack plan forces.")

(* Strictly positive integer (cmdliner rejects 0 and negatives at parse
   time, so e.g. --domains=0 never reaches the simulation). *)
let positive_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not positive" s))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let stop_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "stop-sender-at" ] ~docv:"MS" ~doc:"Stop fresh traffic at this time (ms).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Print the run as a machine-readable JSON record (metrics, harness \
           counters, convergence verdict) instead of text.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write the event trace to $(docv) as JSONL (one event per line).")

let write_trace_jsonl path entries =
  match open_out path with
  | exception Sys_error msg ->
    Printf.eprintf "cannot write trace: %s\n" msg;
    exit 1
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Trace.dump_jsonl oc entries)

let build_protocol variant ~adaptive ~kp ~kq ~save_latency =
  let pol k =
    if adaptive then Some (K_policy.adaptive ~initial_k:k ()) else None
  in
  match variant with
  | `Save_fetch ->
    Protocol.save_fetch ?policy_p:(pol kp) ?policy_q:(pol kq) ~kp ~kq
      ~save_latency ()
  | `Robust ->
    Protocol.save_fetch ~robust_receiver:true ?policy_p:(pol kp)
      ?policy_q:(pol kq) ~kp ~kq ~save_latency ()
  | `Volatile -> Protocol.Volatile
  | `Reestablish -> Protocol.Reestablish { cost = Resets_ipsec.Ike.default_cost }

(* ------------------------------------------------------------------ *)
(* run *)

let run_cmd =
  let go seed horizon variant kp kq gap save_latency adaptive paired resets
      downtime attack attack_resets stop json trace_out =
    let message_gap = Time.of_ns (Int64.of_float (gap *. 1e3)) in
    let save_latency_t = Time.of_ns (Int64.of_float (save_latency *. 1e3)) in
    let downtime_t = time_of_ms downtime in
    let floor_k =
      Analysis.k_of_rates ~t_save:save_latency_t ~t_msg:message_gap
    in
    let resolve name = function
      | None -> Ok 25
      | Some `Auto -> Ok floor_k
      | Some (`Fixed v) ->
        if v < floor_k then
          Error
            (Printf.sprintf
               "--%s %d is below the derived safety floor K >= \
                ceil(T_save/t_msg) = %d (save latency %gus, message gap \
                %gus): a SAVE every %d messages cannot complete before the \
                next is due, so the durable counter falls behind unboundedly. \
                Use --%s auto or a count >= %d."
               name v floor_k save_latency gap v name floor_k)
        else Ok v
    in
    match (resolve "kp" kp, resolve "kq" kq) with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok kp, Ok kq ->
      let attack =
        build_attack ~gap:message_gap ~downtime:downtime_t
          ~stealth_resets:attack_resets attack
      in
      let scenario =
        {
          Harness.default with
          seed;
          horizon = time_of_ms horizon;
          protocol =
            build_protocol variant ~adaptive ~kp ~kq
              ~save_latency:save_latency_t;
          message_gap;
          resets =
            List.concat_map
              (fun (target, ms) ->
                Reset_schedule.single ~at:(time_of_ms ms) ~downtime:downtime_t
                  target)
              resets
            |> List.sort (fun a b ->
                   Time.compare a.Reset_schedule.at b.Reset_schedule.at);
          attack;
          sender_stop_at = Option.map time_of_ms stop;
          keep_trace = Harness.default.Harness.keep_trace || trace_out <> None;
        }
      in
      if paired then begin
        let deg = Harness.run_paired scenario in
        let result = deg.Harness.primary in
        let verdict = Convergence.check ~scenario result in
        (match (trace_out, result.Harness.trace) with
        | Some path, Some trace -> write_trace_jsonl path (Trace.entries trace)
        | Some _, None | None, _ -> ());
        if json then
          print_endline
            (Resets_util.Json.to_string_pretty
               (Report.degradation_to_json ~verdict deg))
        else begin
          Format.printf "%a@." Harness.pp_result result;
          Format.printf
            "paired oracle: goodput %.3f of attack-free twin \
             (%d/%d distinct), disruption %+.6fs, recovery %+.6fs@."
            deg.Harness.goodput_ratio
            (result.Harness.metrics.Metrics.delivered
            - result.Harness.metrics.Metrics.duplicate_deliveries)
            (deg.Harness.oracle.Harness.metrics.Metrics.delivered
            - deg.Harness.oracle.Harness.metrics.Metrics.duplicate_deliveries)
            deg.Harness.disruption_delta_s deg.Harness.recovery_delta_s;
          Format.printf "verdict: %a@." Convergence.pp verdict
        end;
        `Ok (if Convergence.holds verdict then 0 else 2)
      end
      else begin
        let result = Harness.run scenario in
        let verdict = Convergence.check ~scenario result in
        (match (trace_out, result.Harness.trace) with
        | Some path, Some trace -> write_trace_jsonl path (Trace.entries trace)
        | Some _, None | None, _ -> ());
        if json then
          print_endline
            (Resets_util.Json.to_string_pretty
               (Report.result_to_json ~verdict result))
        else begin
          Format.printf "%a@." Harness.pp_result result;
          Format.printf "verdict: %a@." Convergence.pp verdict
        end;
        `Ok (if Convergence.holds verdict then 0 else 2)
      end
  in
  let adaptive =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Run the adaptive K policy: both endpoints re-derive their SAVE \
             cadence online from EWMA-percentile observations of SAVE latency \
             and inter-send gap, seeded at the resolved --kp/--kq.")
  in
  let paired =
    Arg.(
      value & flag
      & info [ "paired" ]
          ~doc:
            "Replay the same seed attack-free as an oracle and report goodput \
             and convergence-time degradation against it.")
  in
  let term =
    Term.(
      ret
        (const go $ seed_arg $ horizon_arg $ protocol_arg $ k_arg "kp" 25
       $ k_arg "kq" 25 $ gap_arg $ save_latency_arg $ adaptive $ paired
       $ reset_arg $ downtime_arg $ attack_arg $ attack_resets_arg $ stop_arg
       $ json_arg $ trace_out_arg))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one simulated scenario and print metrics + verdict.")
    term

(* ------------------------------------------------------------------ *)
(* explore *)

let explore_cmd =
  let go model s_max p_resets q_resets k w capacity adversary max_states print_model =
    let open Resets_apn in
    let below name least v =
      let flag = (if String.length name = 1 then "-" else "--") ^ name in
      if v < least then Some (Printf.sprintf "%s must be at least %d, got %d" flag least v)
      else None
    in
    match
      List.find_map Fun.id
        [
          below "k" 1 k; below "w" 1 w; below "capacity" 1 capacity;
          below "max-states" 1 max_states; below "s-max" 0 s_max;
          below "p-resets" 0 p_resets; below "q-resets" 0 q_resets;
        ]
    with
    | Some msg -> `Error (false, msg)
    | None ->
      let bounds = Models.{ s_max; p_resets; q_resets } in
      let robust = model = `Robust in
      if print_model then
        List.iter
          (fun p -> Format.printf "%s@.@." (Pp.process_to_string p))
          (match model with
          | `Original -> [ Models.original_p ~bounds (); Models.original_q ~bounds ~w () ]
          | `Augmented | `Robust ->
            [
              Models.augmented_p ~bounds ~kp:k ();
              Models.augmented_q ~bounds ~robust ~kq:k ~w ();
            ]);
      let system, invariant =
        match model with
        | `Original ->
          ( Models.original_system ~bounds ~capacity ~adversary ~w (),
            Models.discrimination_holds )
        | `Augmented | `Robust ->
          ( Models.augmented_system ~bounds ~capacity ~adversary ~robust ~kp:k ~kq:k ~w (),
            Models.all_section5_invariants )
      in
      let outcome = Explorer.explore ~max_states ~invariant system in
      Format.printf "%a@." Explorer.pp_outcome outcome;
      (match outcome with
      | Explorer.Violation _ -> `Ok 2
      | Explorer.Exhausted _ | Explorer.Limit_reached _ -> `Ok 0)
  in
  let model =
    Arg.(
      value
      & opt (enum [ ("original", `Original); ("augmented", `Augmented); ("robust", `Robust) ])
          `Augmented
      & info [ "model" ] ~docv:"M" ~doc:"Which protocol model to explore.")
  in
  let s_max = Arg.(value & opt int 4 & info [ "s-max" ] ~doc:"Max sequence number.") in
  let p_resets = Arg.(value & opt int 1 & info [ "p-resets" ] ~doc:"Reset budget for p.") in
  let q_resets = Arg.(value & opt int 1 & info [ "q-resets" ] ~doc:"Reset budget for q.") in
  let k = Arg.(value & opt int 1 & info [ "k" ] ~doc:"Kp = Kq.") in
  let w = Arg.(value & opt int 2 & info [ "w" ] ~doc:"Window width.") in
  let capacity = Arg.(value & opt int 2 & info [ "capacity" ] ~doc:"Channel bound.") in
  let adversary =
    Arg.(value & flag & info [ "adversary" ] ~doc:"Enable the replay adversary.")
  in
  let max_states =
    Arg.(value & opt int 500_000 & info [ "max-states" ] ~doc:"State budget.")
  in
  let print_model =
    Arg.(
      value & flag
      & info [ "print-model" ]
          ~doc:
            "Print the model's processes p and q in the paper's Abstract Protocol \
             Notation before exploring them: the same syntax the explorer runs.")
  in
  let term =
    Term.(
      ret
        (const go $ model $ s_max $ p_resets $ q_resets $ k $ w $ capacity $ adversary
       $ max_states $ print_model))
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Exhaustively model-check a protocol model within bounds.")
    term

(* ------------------------------------------------------------------ *)
(* bidir *)

let bidir_cmd =
  let go reset_at downtime horizon replay =
    let outcome =
      Bidirectional.run ~replay_announce:replay ~reset_at:(time_of_ms reset_at)
        ~downtime:(time_of_ms downtime) ~horizon:(time_of_ms horizon)
        Bidirectional.default_config
    in
    Format.printf "death detected: %s@."
      (match outcome.Bidirectional.death_detected_at with
      | Some t -> Format.asprintf "%a" Time.pp t
      | None -> "never");
    Format.printf "sa survived: %b@." outcome.Bidirectional.sa_survived;
    Format.printf "announce accepted: %b@." outcome.Bidirectional.announce_accepted;
    Format.printf "replayed announce rejected: %b@."
      outcome.Bidirectional.replayed_announce_rejected;
    (match outcome.Bidirectional.convergence_time with
    | Some t -> Format.printf "convergence: %a@." Time.pp t
    | None -> Format.printf "convergence: never@.");
    0
  in
  let reset_at =
    Arg.(value & opt float 10. & info [ "reset-at" ] ~docv:"MS" ~doc:"Reset time.")
  in
  let downtime =
    Arg.(value & opt float 20. & info [ "outage" ] ~docv:"MS" ~doc:"Outage length.")
  in
  let horizon =
    Arg.(value & opt float 120. & info [ "horizon" ] ~docv:"MS" ~doc:"Horizon.")
  in
  let replay =
    Arg.(value & flag & info [ "replay-announce" ] ~doc:"Replay the announcement.")
  in
  Cmd.v
    (Cmd.info "bidir" ~doc:"Run the Section 6 prolonged-reset recovery scheme.")
    Term.(const go $ reset_at $ downtime $ horizon $ replay)

(* ------------------------------------------------------------------ *)
(* multi-sa *)

let multi_sa_cmd =
  let go n domains discipline attack_at trace_out =
    (* Nonsensical combinations are cmdliner usage errors, reported
       before any simulation runs. *)
    if domains > n then
      `Error
        (true,
         Printf.sprintf "--domains %d exceeds --sas %d: a shard needs at least one SA"
           domains n)
    else
      match trace_out with
      | Some path
        when Sys.file_exists path && Sys.is_directory path ->
        `Error (true, Printf.sprintf "--trace-out %s is a directory" path)
      | Some path
        when (let dir = Filename.dirname path in
              not (Sys.file_exists dir && Sys.is_directory dir)) ->
        `Error
          (true,
           Printf.sprintf "--trace-out directory %s does not exist"
             (Filename.dirname path))
      | _ ->
        let attack =
          match attack_at with
          | None -> Endpoint.No_attack
          | Some at -> Endpoint.Replay_all_at (time_of_ms at)
        in
        let cfg =
          {
            Multi_sa.default_config with
            Multi_sa.sa_count = n;
            attack;
            keep_trace = trace_out <> None;
          }
        in
        let o = Multi_sa.run ~domains discipline cfg in
        (* the blocks' traces, merged deterministically into ONE file —
           packet-level events are identical for any --domains value;
           disk bookkeeping (crash/snapshot records) and equal-timestamp
           tie order are per-block (see Multi_sa) *)
        Option.iter (fun path -> write_trace_jsonl path o.Multi_sa.trace) trace_out;
        Format.printf "ready: %a%s@." Time.pp o.Multi_sa.ready_time
          (if o.Multi_sa.recovered_fully then "" else " (horizon-capped)");
        Format.printf "delivering again: %a@." Time.pp o.Multi_sa.recovery_time;
        Format.printf "messages lost: %d@." o.Multi_sa.messages_lost;
        Format.printf "disk writes: %d@." o.Multi_sa.disk_writes;
        Format.printf "handshake messages: %d@." o.Multi_sa.handshake_messages;
        Format.printf "duplicates: %d@." o.Multi_sa.duplicate_deliveries;
        if domains > 1 then
          Array.iter
            (fun (s : Multi_sa.shard_stat) ->
              Format.printf "shard [%d,%d): %d events in %.3fs@."
                s.Multi_sa.stat_lo s.Multi_sa.stat_hi s.Multi_sa.stat_events_fired
                s.Multi_sa.stat_wall_s)
            o.Multi_sa.shard_stats;
        if attack_at <> None then begin
          Format.printf "replays injected: %d@." o.Multi_sa.adversary_injected;
          Format.printf "replays accepted: %d@." o.Multi_sa.replay_accepted
        end;
        if o.Multi_sa.duplicate_deliveries = 0 && o.Multi_sa.replay_accepted = 0
        then `Ok 0
        else `Ok 2
  in
  let n =
    Arg.(
      value
      & opt positive_int_conv 16
      & info [ "sas" ] ~docv:"N" ~doc:"Number of SAs on the host.")
  in
  let domains =
    Arg.(
      value
      & opt positive_int_conv 1
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Shard the simulation across $(docv) OCaml domains. Protocol-level \
             results are identical for every value; only wall-clock time \
             changes. Must not exceed --sas.")
  in
  let attack_at =
    Arg.(
      value
      & opt (some float) None
      & info [ "attack" ] ~docv:"MS"
          ~doc:"Replay every captured packet against every SA's link at MS.")
  in
  let discipline =
    Arg.(
      value
      & opt (enum
               [
                 ("per-sa", `Save_fetch_per_sa);
                 ("coalesced", `Save_fetch_coalesced);
                 ("reestablish", `Reestablish);
               ])
          `Save_fetch_per_sa
      & info [ "discipline" ] ~docv:"D" ~doc:"Recovery discipline.")
  in
  Cmd.v
    (Cmd.info "multi-sa" ~doc:"Recover a host with many SAs after a reset.")
    Term.(ret (const go $ n $ domains $ discipline $ attack_at $ trace_out_arg))

(* ------------------------------------------------------------------ *)
(* rekey *)

let rekey_cmd =
  let go strategy lifetime margin =
    let cfg =
      {
        Rekey.default_config with
        Rekey.lifetime_packets = lifetime;
        rekey_margin = margin;
      }
    in
    let o = Rekey.run strategy cfg in
    Format.printf "rekeys completed: %d@." o.Rekey.rekeys_completed;
    Format.printf "delivered: %d (lost %d)@." o.Rekey.delivered o.Rekey.messages_lost;
    Format.printf "max delivery gap: %a@." Time.pp o.Rekey.max_delivery_gap;
    Format.printf "persisted counters live: %d@." o.Rekey.persisted_keys_live;
    if o.Rekey.duplicate_deliveries = 0 then 0 else 2
  in
  let strategy =
    Arg.(
      value
      & opt (enum [ ("mbb", Rekey.Make_before_break); ("hard", Rekey.Hard_expiry) ])
          Rekey.Make_before_break
      & info [ "strategy" ] ~docv:"S" ~doc:"$(b,mbb) or $(b,hard).")
  in
  let lifetime =
    Arg.(value & opt int 1000 & info [ "lifetime" ] ~docv:"N" ~doc:"SA lifetime in packets.")
  in
  let margin =
    Arg.(value & opt int 200 & info [ "margin" ] ~docv:"N" ~doc:"Rekey margin in packets.")
  in
  Cmd.v
    (Cmd.info "rekey" ~doc:"Planned SA rollover: make-before-break vs hard expiry.")
    Term.(const go $ strategy $ lifetime $ margin)

(* ------------------------------------------------------------------ *)
(* kmin *)

let kmin_cmd =
  let go () =
    Format.printf "minimum safe SAVE interval K = ceil(T_save / t_msg):@.@.";
    Format.printf "%12s" "T \\ gap";
    let gaps = [ 1; 2; 4; 8; 16; 40 ] in
    List.iter (fun g -> Format.printf "%8dus" g) gaps;
    Format.printf "@.";
    List.iter
      (fun t_us ->
        Format.printf "%10dus" t_us;
        List.iter
          (fun g ->
            let k =
              Analysis.k_min ~save_latency:(Time.of_us t_us) ~message_gap:(Time.of_us g)
            in
            Format.printf "%10d" k)
          gaps;
        Format.printf "@.")
      [ 25; 50; 100; 200; 500; 1000 ];
    Format.printf
      "@.the paper's operating point (100us write, 4us/message) gives K >= 25.@.";
    0
  in
  Cmd.v
    (Cmd.info "kmin" ~doc:"Print the Section 4 SAVE-interval table.")
    Term.(const go $ const ())

(* ------------------------------------------------------------------ *)
(* chaos *)

let chaos_cmd =
  let go seeds seed_base horizon weak_leap stealth min_goodput quiet json_out =
    let open Resets_chaos in
    let config =
      {
        Explorer.default_config with
        Explorer.seeds;
        seed_base;
        horizon = time_of_ms horizon;
        weak_leap;
        stealth;
        min_goodput;
      }
    in
    let progress (i, violations) =
      if not quiet then
        if violations > 0 then
          Format.printf "seed %4d: %d violation(s)@." (seed_base + i)
            violations
        else if (i + 1) mod 50 = 0 then
          Format.printf "seed %4d: clean so far@." (seed_base + i)
    in
    let report = Explorer.explore ~progress config in
    (match json_out with
    | Some path ->
      Resets_util.Json.write_file path (Explorer.report_to_json report);
      Format.printf "[json] %s@." path
    | None -> ());
    Format.printf "%d schedule(s), %d violating, %d harness run(s)@."
      (List.length report.Explorer.outcomes)
      (List.length report.Explorer.violating_seeds)
      report.Explorer.total_runs;
    (match report.Explorer.shrunk with
    | None -> Format.printf "no violations: protocol held under chaos@."
    | Some s ->
      Format.printf "minimal counterexample (after %d shrink runs):@."
        s.Explorer.shrink_runs;
      Format.printf "%s@."
        (Resets_util.Json.to_string_pretty
           (Explorer.schedule_to_json s.Explorer.minimal));
      List.iter
        (fun v ->
          Format.printf "  %a@." Resets_core.Invariant.pp_violation v)
        s.Explorer.violations;
      Format.printf "replay identical: %b@." report.Explorer.replay_identical);
    if
      report.Explorer.violating_seeds = [] && report.Explorer.replay_identical
    then 0
    else 2
  in
  let seeds =
    Arg.(
      value
      & opt positive_int_conv 50
      & info [ "seeds" ] ~docv:"N" ~doc:"How many random fault schedules to run.")
  in
  let seed_base =
    Arg.(
      value & opt int 1
      & info [ "seed-base" ] ~docv:"N" ~doc:"First schedule seed.")
  in
  let horizon =
    Arg.(
      value & opt float 50.
      & info [ "horizon" ] ~docv:"MS" ~doc:"Per-schedule horizon (ms).")
  in
  let weak_leap =
    Arg.(
      value & flag
      & info [ "weak-leap" ]
          ~doc:
            "Weaken the receiver wakeup leap from the paper's 2K to K — the \
             unsound configuration the explorer is expected to catch and \
             shrink.")
  in
  let stealth =
    Arg.(
      value & flag
      & info [ "stealth" ]
          ~doc:
            "Draw adversaries from the stealth goodput-degradation family, \
             slow the simulated disk, and judge each schedule by a paired \
             attack-free oracle as well as the invariant monitor: goodput \
             below --min-goodput of the oracle counts as a violation and is \
             shrunk like one.")
  in
  let min_goodput =
    Arg.(
      value
      & opt float 0.6
      & info [ "min-goodput" ] ~docv:"R"
          ~doc:
            "Stealth mode's tolerated fraction of oracle goodput (0..1).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No per-seed progress output.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the full report to $(docv).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run random fault schedules (resets, link faults, disk faults, \
          replay adversary — and, with --stealth, goodput-degradation \
          adversaries judged against a paired oracle) under the invariant \
          monitor and shrink any violation to a minimal counterexample.")
    Term.(
      const go $ seeds $ seed_base $ horizon $ weak_leap $ stealth $ min_goodput
      $ quiet $ json_out)

(* ------------------------------------------------------------------ *)
(* serve: one side of the association as a real daemon over a socket *)

let serve_cmd =
  let open Resets_net in
  let go role addr peer secret spi_base sas k adaptive window rate duration
      store_dir stats_path json_path expect_recovery heartbeat batch
      rcvbuf sndbuf discipline churn impair impair_seed store_faults fault_seed
      graceful quiet =
    let parse_addr label = function
      | None -> None
      | Some s -> (
        match Transport_udp.addr_of_string s with
        | Ok a -> Some a
        | Error msg ->
          Printf.eprintf "serve: bad %s: %s\n%!" label msg;
          exit 1)
    in
    let cfg =
      {
        Daemon.role = (match role with `Send -> Daemon.Send | `Recv -> Daemon.Recv);
        bind = parse_addr "--bind" addr;
        peer = parse_addr "--peer" peer;
        secret;
        spi_base;
        sas;
        k;
        adaptive;
        window;
        rate_pps = rate;
        duration;
        store_dir;
        stats_path;
        json_path;
        expect_recovery;
        heartbeat;
        batch;
        rcvbuf;
        sndbuf;
        discipline;
        churn;
        impair;
        impair_seed;
        store_faults;
        fault_seed;
        handle_signals = graceful;
      }
    in
    match Daemon.run cfg with
    | code, rep ->
      if not quiet then print_endline (Resets_util.Json.to_string_pretty rep);
      code
    | exception Invalid_argument msg ->
      Printf.eprintf "serve: %s\n%!" msg;
      1
  in
  let role =
    Arg.(
      required
      & opt (some (enum [ ("send", `Send); ("recv", `Recv) ])) None
      & info [ "role" ] ~docv:"ROLE"
          ~doc:"Which process to run: $(b,send) (p) or $(b,recv) (q).")
  in
  let addr =
    Arg.(
      value
      & opt (some string) None
      & info [ "bind" ] ~docv:"ADDR"
          ~doc:
            "Local address to receive on: $(b,udp:HOST:PORT) or \
             $(b,unix:PATH). Required for --role recv.")
  in
  let peer =
    Arg.(
      value
      & opt (some string) None
      & info [ "peer" ] ~docv:"ADDR"
          ~doc:"Peer address to send to (same syntax). Required for --role send.")
  in
  let secret =
    Arg.(
      value
      & opt string "wire-shared-secret"
      & info [ "secret" ] ~docv:"S"
          ~doc:"Shared secret both daemons derive SA keys from (no wire IKE).")
  in
  let spi_base =
    Arg.(
      value & opt int 0x5000 & info [ "spi-base" ] ~docv:"N" ~doc:"First SPI.")
  in
  let sas =
    Arg.(
      value
      & opt positive_int_conv 1
      & info [ "sas" ] ~docv:"N" ~doc:"Number of SAs (SPIs spi-base..+N-1).")
  in
  let k =
    Arg.(
      value
      & opt positive_int_conv 8
      & info [ "k" ] ~docv:"K"
          ~doc:"SAVE every K messages; wakeup leap is 2K.")
  in
  let adaptive =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Re-derive each SA's SAVE cadence online, starting at -k, from \
             wall-clock SAVE latency and inter-send gaps; the recovery \
             gate's leap bound widens to the policy ceiling.")
  in
  let window =
    Arg.(
      value & opt positive_int_conv 64
      & info [ "window" ] ~docv:"W" ~doc:"Replay window width.")
  in
  let rate =
    Arg.(
      value & opt float 200.
      & info [ "rate" ] ~docv:"PPS" ~doc:"Send rate per SA, packets/second.")
  in
  let duration =
    Arg.(
      value & opt float 3.
      & info [ "duration" ] ~docv:"S" ~doc:"Wall-clock run time in seconds.")
  in
  let store_dir =
    Arg.(
      value
      & opt string "/tmp/resets-store"
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "File store directory. Keys already present are recovered from \
             (FETCH + leap + blocking SAVE) instead of re-established.")
  in
  let stats_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats" ] ~docv:"FILE"
          ~doc:
            "Append heartbeat JSONL here; on restart the previous \
             incarnation's last heartbeat listing SAs seeds the \
             cross-incarnation replay check.")
  in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the final report to $(docv).")
  in
  let expect_recovery =
    Arg.(
      value & flag
      & info [ "expect-recovery" ]
          ~doc:
            "Gate the exit code on post-restart convergence (recv role): \
             stored edge recovered, deliveries resumed, at most 2K fresh \
             rejections, no duplicates, no cross-incarnation replay. Exit 2 \
             on violation.")
  in
  let heartbeat =
    Arg.(
      value & opt float 0.25
      & info [ "heartbeat" ] ~docv:"S" ~doc:"Heartbeat period in seconds.")
  in
  let batch =
    Arg.(
      value
      & opt positive_int_conv Resets_net_stubs.Batch_io.default_batch
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Wire batch size: datagrams per recvmmsg/sendmmsg syscall (rx \
             arena slots / tx pool depth). 1 disables batching — one syscall \
             per frame, synchronous send errors.")
  in
  let rcvbuf =
    Arg.(
      value
      & opt (some positive_int_conv) None
      & info [ "rcvbuf" ] ~docv:"BYTES"
          ~doc:
            "Request an explicit SO_RCVBUF; the effective (kernel-granted) \
             size is reported in the startup heartbeat.")
  in
  let sndbuf =
    Arg.(
      value
      & opt (some positive_int_conv) None
      & info [ "sndbuf" ] ~docv:"BYTES"
          ~doc:
            "Request an explicit SO_SNDBUF; the effective (kernel-granted) \
             size is reported in the startup heartbeat.")
  in
  let discipline =
    Arg.(
      value
      & opt
          (enum
             [
               ("per-sa", Resets_net.Daemon.Per_sa);
               ("coalesced", Resets_net.Daemon.Coalesced);
               ("reestablish", Resets_net.Daemon.Reestablish);
             ])
          Resets_net.Daemon.Per_sa
      & info [ "discipline" ] ~docv:"D"
          ~doc:
            "Recovery discipline: $(b,per-sa) (one store key per SA), \
             $(b,coalesced) (one snapshot file, all SAs recovered \
             together), or $(b,reestablish) (ignore stored state, fresh \
             sequence space).")
  in
  let churn =
    Arg.(
      value
      & opt
          (enum
             [
               ("steady", Resets_net.Daemon.Steady);
               ("storm", Resets_net.Daemon.Storm);
               ("mixed", Resets_net.Daemon.Mixed);
             ])
          Resets_net.Daemon.Steady
      & info [ "churn" ] ~docv:"C"
          ~doc:
            "Background traffic shape: $(b,steady) constant spacing, \
             $(b,storm) bursty on/off (the wire-level rekey-storm analogue), \
             $(b,mixed) alternating by SA.")
  in
  let impair_conv =
    let parse s =
      match Resets_sim.Link.faults_of_string s with
      | Ok faults -> Ok faults
      | Error msg -> Error (`Msg msg)
    in
    Arg.conv
      ( parse,
        fun fmt f ->
          Format.pp_print_string fmt (Resets_sim.Link.faults_to_string f) )
  in
  let impair =
    Arg.(
      value
      & opt impair_conv Resets_sim.Link.no_faults
      & info [ "impair" ] ~docv:"SPEC"
          ~doc:
            "Deterministic wire faults on the send path, run by the \
             simulator's channel model (one seeded link per SA), e.g. \
             $(b,drop=0.05,dup=0.02,reorder=0.02:10ms,ge=0.02:0.3:0.8): \
             i.i.d. loss, duplication, reordering (a frame held back by \
             the given delay) and Gilbert-Elliott enter:exit:drop burst \
             loss. Probabilities must lie in [0, 1].")
  in
  let impair_seed =
    Arg.(
      value & opt int 1
      & info [ "impair-seed" ] ~docv:"N"
          ~doc:"PRNG root for the impairment (and churn) streams.")
  in
  let faults_conv =
    let parse s =
      match Resets_persist.Faults.spec_of_string s with
      | Ok spec -> Ok spec
      | Error msg -> Error (`Msg msg)
    in
    Arg.conv
      ( parse,
        fun fmt s ->
          Format.pp_print_string fmt (Resets_persist.Faults.spec_to_string s) )
  in
  let store_faults =
    Arg.(
      value
      & opt faults_conv Resets_persist.Faults.none
      & info [ "store-faults" ] ~docv:"SPEC"
          ~doc:
            "Deterministic file-store fault plan, e.g. \
             $(b,write_fail=0.05,torn=0.02,corrupt=0.01,stale=0.01): transient \
             write failures, aborted renames, corrupt/stale checked reads. \
             Probabilities must lie in [0, 1]. A file store does not slow \
             its writes, so a $(b,latency) factor other than 1 is refused.")
  in
  let fault_seed =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:"PRNG root for the store-fault plan.")
  in
  let graceful =
    Arg.(
      value & flag
      & info [ "graceful" ]
          ~doc:
            "Handle SIGTERM as a graceful stop: finish with a final blocking \
             SAVE of every SA's freshest counter and a terminal heartbeat \
             (reason sigterm) instead of dying mid-write.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Do not print the final report.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run one side of the association as a real daemon: ESP datagrams \
          over UDP or UNIX sockets, sequence state in a file store under the \
          SAVE/FETCH k-rule. Kill it and restart on the same store to run \
          the paper's reset experiment on real processes.")
    Term.(
      const go $ role $ addr $ peer $ secret $ spi_base $ sas $ k $ adaptive
      $ window $ rate $ duration $ store_dir $ stats_path $ json_path
      $ expect_recovery $ heartbeat $ batch $ rcvbuf $ sndbuf
      $ discipline $ churn $ impair $ impair_seed $ store_faults $ fault_seed
      $ graceful $ quiet)

(* ------------------------------------------------------------------ *)
(* fleet: the E17 reboot-convergence scenario matrix *)

let fleet_cmd =
  let open Resets_fleet in
  let go smoke json_out workdir bin repeats seed batch quiet =
    let params0 = if smoke then Matrix.smoke_params else Matrix.full_params in
    let params = { params0 with Matrix.repeats; seed; batch } in
    let cells = if smoke then Matrix.smoke_cells else Matrix.full_cells in
    let bin = match bin with Some b -> b | None -> Sys.executable_name in
    let log msg = if not quiet then Format.printf "[fleet] %s@." msg in
    let report = Report.create ~id:"E17" ~title:Matrix.title ~claim:Matrix.claim in
    let t0 = Unix.gettimeofday () in
    Matrix.run ~bin ~workdir ~log ~cells ~params ~kill_modes:(not smoke) report;
    let json =
      Report.to_json ~wall_clock_s:(Unix.gettimeofday () -. t0)
        ~generator:"ipsec_resets fleet" report
    in
    (match json_out with
    | Some path ->
      Resets_util.Json.write_file path json;
      if not quiet then Format.printf "[fleet] wrote %s@." path
    | None -> print_endline (Resets_util.Json.to_string_pretty json));
    List.iter (Printf.eprintf "check failed: E17: %s\n") (Report.failed report);
    if not quiet then
      Format.printf "[fleet] %s@."
        (if Report.pass report then "all gates held" else "FAILED");
    if Report.pass report then 0 else 2
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Small matrix: one cell per reset scope, short durations, the \
             faulty cells but no kill-mode probes — the check.sh gate.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the E17 record (BENCH_E17.json's schema) to $(docv).")
  in
  let workdir =
    Arg.(
      value
      & opt string "/tmp/resets-fleet"
      & info [ "workdir" ] ~docv:"DIR"
          ~doc:
            "Scratch directory: one subdirectory per cell (sockets, stores, \
             heartbeats, daemon logs), left in place for inspection.")
  in
  let bin =
    Arg.(
      value
      & opt (some string) None
      & info [ "bin" ] ~docv:"PATH"
          ~doc:
            "The ipsec-resets executable whose $(b,serve) verb runs the \
             daemons (default: this executable).")
  in
  let repeats =
    Arg.(
      value & opt int 1
      & info [ "repeats" ] ~docv:"N" ~doc:"Repeats per cell.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Root seed for impairment and fault plans.")
  in
  let batch =
    Arg.(
      value
      & opt positive_int_conv Matrix.smoke_params.batch
      & info [ "batch" ] ~docv:"N"
          ~doc:"Wire batch depth of both daemons ($(b,serve --batch)).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No per-cell progress output.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run the E17 reboot-convergence matrix: a fault-injecting \
          supervisor crosses reset scope (single SA / whole SADB / \
          disk-lost cold start) x recovery discipline (per-SA / coalesced \
          / re-establish) x background churn over real daemon pairs, \
          measuring messages lost and time-to-converged per cell against \
          the 2k bound from heartbeats alone. Exit 0 when every gate \
          holds, 2 otherwise (matching serve --expect-recovery).")
    Term.(
      const go $ smoke $ json_out $ workdir $ bin $ repeats $ seed $ batch
      $ quiet)

(* ------------------------------------------------------------------ *)
(* trace *)

let trace_cmd =
  let go horizon trace_out =
    let scenario =
      {
        Harness.default with
        horizon = time_of_ms horizon;
        message_gap = Time.of_us 400;
        protocol = Protocol.save_fetch ~kp:5 ~kq:5 ();
        resets = Reset_schedule.single ~at:(time_of_ms (horizon /. 2.)) Receiver;
        keep_trace = true;
      }
    in
    let result = Harness.run scenario in
    (match result.Harness.trace with
    | Some trace -> (
      match trace_out with
      | Some path ->
        let entries = Trace.entries trace in
        write_trace_jsonl path entries;
        Format.printf "wrote %d events to %s@." (List.length entries) path
      | None -> Trace.dump Format.std_formatter trace)
    | None -> ());
    Format.printf "---@.%a@." Harness.pp_result result;
    0
  in
  let horizon =
    Arg.(value & opt float 10. & info [ "horizon" ] ~docv:"MS" ~doc:"Horizon (ms).")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run a small scenario and dump the full event trace.")
    Term.(const go $ horizon $ trace_out_arg)

let () =
  let doc = "Convergence of IPsec in presence of resets — reproduction driver" in
  let info = Cmd.info "ipsec-resets" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            run_cmd; explore_cmd; bidir_cmd; multi_sa_cmd; rekey_cmd; kmin_cmd;
            chaos_cmd; serve_cmd; fleet_cmd; trace_cmd;
          ]))
