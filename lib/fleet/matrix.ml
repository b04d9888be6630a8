open Resets_util
module Report = Resets_core.Report

type scope = Single_sa | Whole_sadb | Disk_lost
type discipline = Per_sa | Coalesced | Reestablish
type churn = Steady | Storm | Mixed

type cell = { scope : scope; discipline : discipline; churn : churn }

let scope_to_string = function
  | Single_sa -> "single_sa"
  | Whole_sadb -> "whole_sadb"
  | Disk_lost -> "disk_lost"

let discipline_to_string = function
  | Per_sa -> "per_sa"
  | Coalesced -> "coalesced"
  | Reestablish -> "reestablish"

let churn_to_string = function
  | Steady -> "steady"
  | Storm -> "storm"
  | Mixed -> "mixed"

let cell_id c =
  Printf.sprintf "%s-%s-%s" (scope_to_string c.scope)
    (discipline_to_string c.discipline)
    (churn_to_string c.churn)

type params = {
  k : int;
  rate_pps : float;
  warmup_s : float;
  downtime_s : float;
  post_s : float;
  heartbeat_s : float;
  repeats : int;
  seed : int;
  batch : int;
}

(* [batch] 32 is serve's own default wire batch depth. *)
let smoke_params =
  {
    k = 4;
    rate_pps = 200.;
    warmup_s = 1.0;
    downtime_s = 0.4;
    post_s = 1.5;
    heartbeat_s = 0.1;
    repeats = 1;
    seed = 1;
    batch = 32;
  }

let full_params =
  {
    smoke_params with
    warmup_s = 1.5;
    downtime_s = 0.6;
    post_s = 2.5;
  }

let all_scopes = [ Single_sa; Whole_sadb; Disk_lost ]
let all_disciplines = [ Per_sa; Coalesced; Reestablish ]
let all_churns = [ Steady; Storm; Mixed ]

let full_cells =
  List.concat_map
    (fun scope ->
      List.concat_map
        (fun discipline ->
          List.map (fun churn -> { scope; discipline; churn }) all_churns)
        all_disciplines)
    all_scopes

(* One cell per reset scope, spanning the other two axes — seconds of
   wall clock, for the check.sh gate. *)
let smoke_cells =
  [
    { scope = Single_sa; discipline = Per_sa; churn = Steady };
    { scope = Whole_sadb; discipline = Coalesced; churn = Storm };
    { scope = Disk_lost; discipline = Reestablish; churn = Mixed };
  ]

let sas_of_scope = function Single_sa -> 1 | Whole_sadb | Disk_lost -> 4

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

(* ------------------------------------------------------------------ *)
(* One crash-restart experiment: warm a daemon pair up, reset the
   receiver on schedule — a signal and a planned downtime (optionally
   wiping its disk), or a stop only the heartbeat watchdog can catch —
   let the supervisor restart it, and measure convergence from the
   heartbeat file alone.                                               *)

type reset = Kill of int | Stop

(* How long a stopped receiver's heartbeat file stays still before the
   watchdog kills it. *)
let stall_s params = Float.max 0.8 (6. *. params.heartbeat_s)

type repeat_result = {
  r_caught : bool; (* respawned after the reset (a stop: by the watchdog) *)
  r_watchdog_restarts : int;
  r_converged : bool;
  r_ttc_s : float option; (* restart -> first all-SAs-delivering hb *)
  r_killed : Heartbeat.line option; (* the reset incarnation's shutdown line *)
  r_final : Heartbeat.line option; (* the restarted incarnation's last line *)
  r_gate_exit : int option; (* restarted daemon's exit code *)
  r_error : string option;
}

let failed msg =
  {
    r_caught = false;
    r_watchdog_restarts = 0;
    r_converged = false;
    r_ttc_s = None;
    r_killed = None;
    r_final = None;
    r_gate_exit = None;
    r_error = Some msg;
  }

(* Per SA: post-restart fresh messages lost, and whether it recovered
   stored state, from the restarted incarnation's last line. *)
let lost r =
  match r.r_final with
  | Some l -> List.map (fun sa -> sa.Heartbeat.lost) l.sas
  | None -> []

let recovered r =
  match r.r_final with
  | Some l -> List.length (List.filter (fun sa -> sa.Heartbeat.recovered) l.sas)
  | None -> 0

(* The crash-restart verdict: converged from the heartbeats, at most
   [bound] fresh messages lost on every SA, and the restarted daemon's
   own gate passed. *)
let repeat_ok ~bound r =
  r.r_converged
  && List.for_all (fun l -> l <= bound) (lost r)
  && r.r_gate_exit = Some 0

(* A receiver and a sender daemon on one socket under a fresh, started
   supervisor in an emptied [dir] (no store or heartbeat of an earlier
   run carries over), every flag derived from [params] and [cell]. With
   [stall], the supervisor's watchdog kills a receiver whose heartbeat
   file stops growing for that long. The daemons outlive the warmup,
   the receiver's time down (the planned downtime, or the stall) and
   its restarted run. *)
let launch_pair ~bin ~dir ~params ~(cell : cell) ?stall ~recv_extra
    ~send_extra ~expect_recovery () =
  mkdir_p dir;
  Supervisor.wipe_dir dir;
  let sock = Filename.concat dir "wire.sock" in
  let store_recv = Filename.concat dir "store-recv" in
  let hb_recv = Filename.concat dir "hb-recv.jsonl" in
  let down_s = Option.value stall ~default:params.downtime_s in
  let total_s = params.warmup_s +. down_s +. params.post_s +. 15. in
  let f = Printf.sprintf "%g" in
  let common =
    [
      "--sas"; string_of_int (sas_of_scope cell.scope);
      "-k"; string_of_int params.k;
      "--rate"; f params.rate_pps;
      "--heartbeat"; f params.heartbeat_s;
      "--batch"; string_of_int params.batch;
      "--graceful"; "--quiet";
    ]
  in
  let recv_argv inc =
    [ bin; "serve"; "--role"; "recv"; "--bind"; "unix:" ^ sock ]
    @ common
    @ [
        "--store"; store_recv;
        "--stats"; hb_recv;
        "--discipline"; discipline_to_string cell.discipline
                        |> String.map (fun c -> if c = '_' then '-' else c);
        "--duration"; (if inc = 0 then f total_s else f params.post_s);
        "--json"; Filename.concat dir (Printf.sprintf "recv-report-%d.json" inc);
      ]
    @ (if inc > 0 && expect_recovery then [ "--expect-recovery" ] else [])
    @ recv_extra
  in
  let send_argv _inc =
    [ bin; "serve"; "--role"; "send"; "--peer"; "unix:" ^ sock ]
    @ common
    @ [
        "--store"; Filename.concat dir "store-send";
        "--stats"; Filename.concat dir "hb-send.jsonl";
        "--churn"; churn_to_string cell.churn;
        "--duration"; f total_s;
        "--impair-seed"; string_of_int params.seed;
        "--fault-seed"; string_of_int params.seed;
      ]
    @ send_extra
  in
  let sup = Supervisor.create () in
  let recv_slot =
    Supervisor.add sup
      {
        (Supervisor.default_spec ~name:"recv" ~argv:recv_argv
           ~log:(Filename.concat dir "recv.log"))
        with
        watchdog = Option.map (fun d -> (hb_recv, d)) stall;
      }
  in
  let _send_slot =
    Supervisor.add sup
      (Supervisor.default_spec ~name:"send" ~argv:send_argv
         ~log:(Filename.concat dir "send.log"))
  in
  Supervisor.start sup;
  (sup, recv_slot, hb_recv, store_recv)

let run_repeat ~bin ~dir ~params ~(cell : cell) ~reset ?(recv_extra = [])
    ?(send_extra = []) () =
  let stall = match reset with Stop -> Some (stall_s params) | Kill _ -> None in
  (* Re-establishment and a lost disk start a fresh sequence space:
     recovery of stored state is impossible by construction, so the
     daemon-side gate drops its recovery requirement there (the
     heartbeat-side convergence check still applies in full). *)
  let expect_recovery = cell.scope <> Disk_lost in
  let sup, recv_slot, hb_recv, store_recv =
    launch_pair ~bin ~dir ~params ~cell ?stall ~recv_extra ~send_extra
      ~expect_recovery ()
  in
  let finish r =
    Supervisor.stop sup ~grace:3.;
    r
  in
  (* Warmup: every SA delivering, with enough traffic behind it that
     periodic SAVEs have happened (> 2k messages per SA). *)
  let warm () =
    match Heartbeat.last (Heartbeat.load hb_recv) with
    | Some line ->
      Heartbeat.all_delivering line
      && List.for_all (fun sa -> sa.Heartbeat.delivered > 2 * params.k) line.sas
    | None -> false
  in
  let warmed =
    Supervisor.tick_until sup ~timeout:(params.warmup_s +. 10.) warm
  in
  match (warmed, Supervisor.proc recv_slot) with
  | false, _ | true, None ->
    finish (failed "warmup: receiver never reached steady delivery")
  | true, Some proc0 ->
    (* The scripted reset. *)
    (match reset with
    | Kill signal ->
      Supervisor.kill recv_slot ~signal ~hold:params.downtime_s
        ~wipe:(match cell.scope with Disk_lost -> [ store_recv ] | _ -> [])
    | Stop -> Proc.kill proc0 Sys.sigstop);
    let respawned () =
      match Supervisor.proc recv_slot with
      | Some p -> Proc.pid p <> Proc.pid proc0
      | None -> false
    in
    let down_s = Option.value stall ~default:params.downtime_s in
    if not (Supervisor.tick_until sup ~timeout:(down_s +. 15.) respawned) then
      finish (failed "restart: supervisor never respawned the receiver")
    else begin
      let proc1 = Option.get (Supervisor.proc recv_slot) in
      let restart_at = Proc.started_at proc1 in
      (* The restarted incarnation runs a bounded duration; once it is
         up, stop resurrecting it so its exit code survives. *)
      let exited () = Proc.poll proc1 <> Proc.Running in
      let _ =
        Supervisor.tick_until sup ~timeout:(params.post_s +. 20.) exited
      in
      let gate_exit =
        match Proc.poll proc1 with Proc.Exited c -> Some c | _ -> None
      in
      Supervisor.stop sup ~grace:3.;
      let hb = Heartbeat.load hb_recv in
      let post = Heartbeat.of_pid hb ~pid:(Proc.pid proc1) in
      let converged_line = Heartbeat.first_delivering post in
      let watchdog_restarts = Supervisor.watchdog_restarts recv_slot in
      {
        r_caught =
          (match reset with Stop -> watchdog_restarts >= 1 | Kill _ -> true);
        r_watchdog_restarts = watchdog_restarts;
        r_converged = converged_line <> None;
        r_ttc_s =
          Option.map
            (fun (l : Heartbeat.line) ->
              Float.max 0. ((float_of_int l.ts_ns /. 1e9) -. restart_at))
            converged_line;
        r_killed = Heartbeat.terminal (Heartbeat.of_pid hb ~pid:(Proc.pid proc0));
        r_final =
          (match Heartbeat.terminal post with
          | Some l -> Some l
          | None -> Heartbeat.last post);
        r_gate_exit = gate_exit;
        r_error =
          (if converged_line = None then
             Some "no post-restart heartbeat reached all-SAs-delivering"
           else None);
      }
    end

(* ------------------------------------------------------------------ *)
(* E17's record: every row, measure and check goes straight into one
   [Report.t].                                                         *)

let title = "reboot-convergence matrix: supervised daemon pairs"

let claim =
  "On real processes over a real wire, every combination of reset scope \
   (one SA, the whole SADB, a lost disk), recovery discipline (per-SA \
   files, coalesced snapshot, re-establishment) and background churn \
   converges after a SIGKILL-and-restart with at most 2k fresh discards, \
   detected from the heartbeat file alone; a SIGTERM flush survives to the \
   next incarnation, a SIGSTOP stall is caught only by the heartbeat \
   watchdog, and the bound holds through injected store faults and wire \
   impairment."

(* The faulty cells' plans: a misbehaving file store under the
   receiver, an impaired wire in front of the sender. *)
let store_faults = "write_fail=0.05,torn=0.03,corrupt=0.02,stale=0.02"
let wire_impairment = "drop=0.05,dup=0.02,reorder=0.02:10ms,ge=0.02:0.3:0.8"

let percentiles values =
  let s = Stats.Sample.create () in
  List.iter (Stats.Sample.add s) values;
  if Stats.Sample.count s = 0 then (0., 0., 0.)
  else
    ( Stats.Sample.percentile s 50.,
      Stats.Sample.percentile s 99.,
      Stats.Sample.percentile s 100. )

let gate_exit_json r =
  match r.r_gate_exit with Some c -> Json.Int c | None -> Json.Null

let run_cell ~bin ~workdir ~params ~bound ~log report (cell : cell) =
  let repeats =
    List.init params.repeats (fun r ->
        log (Printf.sprintf "cell %s rep %d" (cell_id cell) r);
        run_repeat ~bin
          ~dir:(Filename.concat (Filename.concat workdir (cell_id cell))
                  (Printf.sprintf "rep%d" r))
          ~params ~cell ~reset:(Kill Sys.sigkill) ())
  in
  let l50, l99, lmax =
    percentiles (List.map float_of_int (List.concat_map lost repeats))
  in
  let t50, t99, tmax =
    percentiles (List.filter_map (fun r -> r.r_ttc_s) repeats)
  in
  let ok = List.for_all (repeat_ok ~bound) repeats in
  log
    (Printf.sprintf "cell %s: lost_max %.0f, ttc_max %.3f s, %s" (cell_id cell)
       lmax tmax
       (if ok then "ok" else "FAILED"));
  Report.row report ~table:"cells"
    [
      ("scope", Json.String (scope_to_string cell.scope));
      ("discipline", Json.String (discipline_to_string cell.discipline));
      ("churn", Json.String (churn_to_string cell.churn));
      ("sas", Json.Int (sas_of_scope cell.scope));
      ("repeats", Json.Int (List.length repeats));
      ("bound_2k", Json.Int bound);
      ("lost_p50", Json.Float l50);
      ("lost_p99", Json.Float l99);
      ("lost_max", Json.Float lmax);
      ("ttc_p50_s", Json.Float t50);
      ("ttc_p99_s", Json.Float t99);
      ("ttc_max_s", Json.Float tmax);
      ("converged", Json.Bool (List.for_all (fun r -> r.r_converged) repeats));
      ( "recovered_sas",
        Json.Int (List.fold_left (fun a r -> a + recovered r) 0 repeats) );
      ("gate_exits", Json.List (List.map gate_exit_json repeats));
      ("ok", Json.Bool ok);
      ( "errors",
        Json.List
          (List.filter_map
             (fun r -> Option.map (fun e -> Json.String e) r.r_error)
             repeats) );
    ];
  (lmax, tmax, ok)

(* The kill-mode probes and the faulty cells run on a whole-SADB
   per-SA pair in steady traffic. *)
let probe_cell = { scope = Whole_sadb; discipline = Per_sa; churn = Steady }

(* Kill-mode probes. SIGTERM: the graceful
   incarnation leaves a terminal heartbeat, and the restart recovers at
   least the edge that heartbeat shows (the final blocking SAVE made
   the freshest edge durable). SIGSTOP: the stopped daemon stays alive
   but silent, so only the watchdog can force its restart. *)
let run_kill_modes ~bin ~workdir ~params ~bound ~log report =
  let probe mode reset =
    log ("kill-mode probe: " ^ mode);
    run_repeat ~bin ~dir:(Filename.concat workdir ("kill-" ^ mode)) ~params
      ~cell:probe_cell ~reset ()
  in
  let r = probe "sigterm" (Kill Sys.sigterm) in
  let graceful =
    match r.r_killed with
    | Some l -> l.Heartbeat.reason = Some "sigterm"
    | None -> false
  in
  let recovered_fresh =
    match (r.r_killed, r.r_final) with
    | Some term, Some final ->
      List.for_all
        (fun sa ->
          List.exists
            (fun (t : Heartbeat.sa) ->
              t.spi = sa.Heartbeat.spi && sa.recovered
              && sa.recovered_from >= t.edge)
            term.sas)
        final.sas
    | _ -> false
  in
  let ok = graceful && recovered_fresh && repeat_ok ~bound r in
  Report.row report ~table:"kill_modes"
    [
      ("mode", Json.String "sigterm");
      ("terminal_heartbeat", Json.Bool (r.r_killed <> None));
      ("reason_sigterm", Json.Bool graceful);
      ("recovered_from_final_edge", Json.Bool recovered_fresh);
      ("converged", Json.Bool r.r_converged);
      ("ok", Json.Bool ok);
    ];
  Report.check report
    ~name:
      "SIGTERM graceful stop: terminal heartbeat written and the restart \
       recovers the final edge"
    ok;
  let r = probe "sigstop" Stop in
  let ok = r.r_caught && repeat_ok ~bound r in
  Report.row report ~table:"kill_modes"
    [
      ("mode", Json.String "sigstop");
      ("watchdog_restarts", Json.Int r.r_watchdog_restarts);
      ("stall_deadline_s", Json.Float (stall_s params));
      ("caught", Json.Bool r.r_caught);
      ("converged", Json.Bool r.r_converged);
      ("ok", Json.Bool ok);
    ];
  Report.check report
    ~name:
      "SIGSTOP stall: the heartbeat watchdog forces the restart and the pair \
       reconverges"
    ok

(* Faulty cells: the same crash-restart experiment against a
   misbehaving file store and an impaired wire. *)
let run_faulty ~bin ~workdir ~params ~bound ~log report =
  let faulty fault spec ~recv_extra ~send_extra =
    log ("faulty cell: " ^ fault);
    let r =
      run_repeat ~bin ~dir:(Filename.concat workdir ("faulty-" ^ fault)) ~params
        ~cell:probe_cell ~reset:(Kill Sys.sigkill) ~recv_extra ~send_extra ()
    in
    let lost_max = List.fold_left max 0 (lost r) in
    let ok = repeat_ok ~bound r in
    Report.row report ~table:"faulty"
      [
        ("fault", Json.String fault);
        ("spec", Json.String spec);
        ("bound_2k", Json.Int bound);
        ("lost_max", Json.Int lost_max);
        ("converged", Json.Bool r.r_converged);
        ("gate_exit", gate_exit_json r);
        ("ok", Json.Bool ok);
      ];
    Report.check report
      ~name:
        (Printf.sprintf
           "faulty %s cell: discards still <= 2k through injected faults" fault)
      ~bound:(float_of_int bound) ~value:(float_of_int lost_max) ok
  in
  faulty "store" store_faults
    ~recv_extra:
      [
        "--store-faults"; store_faults;
        "--fault-seed"; string_of_int params.seed;
      ]
    ~send_extra:[];
  faulty "wire" wire_impairment ~recv_extra:[]
    ~send_extra:[ "--impair"; wire_impairment ]

let run ~bin ~workdir ?(log = fun _ -> ()) ?(cells = full_cells)
    ?(params = full_params) ?(kill_modes = true) report =
  mkdir_p workdir;
  List.iter
    (fun (name, v) -> Report.param report name v)
    [
      ("k", Json.Int params.k);
      ("rate_pps", Json.Float params.rate_pps);
      ("warmup_s", Json.Float params.warmup_s);
      ("downtime_s", Json.Float params.downtime_s);
      ("post_s", Json.Float params.post_s);
      ("repeats", Json.Int params.repeats);
      ("seed", Json.Int params.seed);
      ("batch", Json.Int params.batch);
    ];
  let bound = Resets_core.Analysis.max_fresh_discards ~kq:params.k in
  let results =
    List.map (run_cell ~bin ~workdir ~params ~bound ~log report) cells
  in
  let lost_worst = List.fold_left (fun a (l, _, _) -> Float.max a l) 0. results in
  Report.measure report "cells_run" (Json.Int (List.length results));
  Report.measure report "lost_worst" (Json.Float lost_worst);
  Report.measure report "ttc_worst_s"
    (Json.Float (List.fold_left (fun a (_, t, _) -> Float.max a t) 0. results));
  Report.check report
    ~name:
      "every crash-restart cell: fresh discards <= 2k and convergence \
       detected from heartbeats alone"
    ~bound:(float_of_int bound) ~value:lost_worst
    (List.for_all (fun (_, _, ok) -> ok) results);
  if kill_modes then run_kill_modes ~bin ~workdir ~params ~bound ~log report;
  run_faulty ~bin ~workdir ~params ~bound ~log report
