open Resets_util

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
}

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
  }

let full_params =
  {
    k = 4;
    rate_pps = 200.;
    warmup_s = 1.5;
    downtime_s = 0.6;
    post_s = 2.5;
    heartbeat_s = 0.1;
    repeats = 1;
    seed = 1;
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
(* One crash-restart experiment: warm a daemon pair up, kill the
   receiver on schedule (optionally wiping its disk), let the
   supervisor restart it, and measure convergence from the heartbeat
   file alone.                                                         *)

type repeat_result = {
  r_converged : bool;
  r_ttc_s : float option; (* restart -> first all-SAs-delivering hb *)
  r_lost : int list; (* per SA: post-restart fresh messages lost *)
  r_recovered : int; (* SAs that recovered stored state *)
  r_gate_exit : int option; (* restarted daemon's exit code *)
  r_error : string option;
}

let failed msg =
  {
    r_converged = false;
    r_ttc_s = None;
    r_lost = [];
    r_recovered = 0;
    r_gate_exit = None;
    r_error = Some msg;
  }

(* A receiver and a sender daemon on one socket under a fresh, started
   supervisor, every flag derived from [params] and [cell]. With
   [stall], the supervisor's watchdog kills a receiver whose heartbeat
   file stops growing for that long. The daemons outlive the warmup,
   the receiver's time down (the planned downtime, or the stall) and
   its restarted run. *)
let launch_pair ~bin ~dir ~params ~(cell : cell) ?stall ~recv_extra
    ~send_extra ~expect_recovery () =
  mkdir_p dir;
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

let run_repeat ~bin ~dir ~params ~(cell : cell) ~kill_signal ~recv_extra
    ~send_extra ~expect_recovery () =
  let sup, recv_slot, hb_recv, store_recv =
    launch_pair ~bin ~dir ~params ~cell ~recv_extra ~send_extra
      ~expect_recovery ()
  in
  let finish r =
    Supervisor.stop sup ~grace:3.;
    r
  in
  let recv_pid () =
    match Supervisor.proc recv_slot with
    | Some p -> Some (Proc.pid p)
    | None -> None
  in
  let pid0 = recv_pid () in
  (* Warmup: every SA delivering, with enough traffic behind it that
     periodic SAVEs have happened (> 2k messages per SA). *)
  let warm () =
    match Heartbeat.last (Heartbeat.load hb_recv) with
    | Some line ->
      Heartbeat.all_delivering line
      && List.for_all (fun sa -> sa.Heartbeat.delivered > 2 * params.k) line.sas
    | None -> false
  in
  if not (Supervisor.tick_until sup ~timeout:(params.warmup_s +. 10.) warm) then
    finish (failed "warmup: receiver never reached steady delivery")
  else begin
    (* The scripted reset. *)
    Supervisor.kill recv_slot ~signal:kill_signal ~hold:params.downtime_s
      ~wipe:(match cell.scope with Disk_lost -> [ store_recv ] | _ -> []);
    let respawned () =
      match (pid0, recv_pid ()) with
      | Some p0, Some p1 -> p1 <> p0
      | _ -> false
    in
    if
      not
        (Supervisor.tick_until sup
           ~timeout:(params.downtime_s +. 10.)
           respawned)
    then finish (failed "restart: supervisor never respawned the receiver")
    else begin
      let proc1 = Option.get (Supervisor.proc recv_slot) in
      let pid1 = Proc.pid proc1 in
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
      let post = Heartbeat.of_pid (Heartbeat.load hb_recv) ~pid:pid1 in
      let converged_line = Heartbeat.first_delivering post in
      let last_line =
        match Heartbeat.terminal post with
        | Some l -> Some l
        | None -> Heartbeat.last post
      in
      {
        r_converged = converged_line <> None;
        r_ttc_s =
          Option.map
            (fun (l : Heartbeat.line) ->
              Float.max 0. ((float_of_int l.ts_ns /. 1e9) -. restart_at))
            converged_line;
        r_lost =
          (match last_line with
          | Some l -> List.map (fun sa -> sa.Heartbeat.lost) l.sas
          | None -> []);
        r_recovered =
          (match last_line with
          | Some l ->
            List.length (List.filter (fun sa -> sa.Heartbeat.recovered) l.sas)
          | None -> 0);
        r_gate_exit = gate_exit;
        r_error =
          (if converged_line = None then
             Some "no post-restart heartbeat reached all-SAs-delivering"
           else None);
      }
    end
  end

(* ------------------------------------------------------------------ *)

type cell_result = {
  cell : cell;
  sas : int;
  bound : int;
  repeats : repeat_result list;
}

let percentiles values =
  let s = Stats.Sample.create () in
  List.iter (Stats.Sample.add s) values;
  if Stats.Sample.count s = 0 then (0., 0., 0.)
  else
    ( Stats.Sample.percentile s 50.,
      Stats.Sample.percentile s 99.,
      Stats.Sample.percentile s 100. )

let cell_ok r =
  let lost_ok =
    List.for_all
      (fun rep -> List.for_all (fun l -> l <= r.bound) rep.r_lost)
      r.repeats
  in
  let conv_ok = List.for_all (fun rep -> rep.r_converged) r.repeats in
  let gate_ok =
    List.for_all
      (fun rep -> match rep.r_gate_exit with Some c -> c = 0 | None -> false)
      r.repeats
  in
  lost_ok && conv_ok && gate_ok

let json_of_cell_result r =
  let lost = List.concat_map (fun rep -> rep.r_lost) r.repeats in
  let ttc = List.filter_map (fun rep -> rep.r_ttc_s) r.repeats in
  let l50, l99, lmax = percentiles (List.map float_of_int lost) in
  let t50, t99, tmax = percentiles ttc in
  let errors =
    List.filter_map (fun rep -> rep.r_error) r.repeats
    |> List.map (fun e -> Json.String e)
  in
  Json.Obj
    [
      ("scope", Json.String (scope_to_string r.cell.scope));
      ("discipline", Json.String (discipline_to_string r.cell.discipline));
      ("churn", Json.String (churn_to_string r.cell.churn));
      ("sas", Json.Int r.sas);
      ("repeats", Json.Int (List.length r.repeats));
      ("bound_2k", Json.Int r.bound);
      ("lost_p50", Json.Float l50);
      ("lost_p99", Json.Float l99);
      ("lost_max", Json.Float lmax);
      ("ttc_p50_s", Json.Float t50);
      ("ttc_p99_s", Json.Float t99);
      ("ttc_max_s", Json.Float tmax);
      ( "converged",
        Json.Bool (List.for_all (fun rep -> rep.r_converged) r.repeats) );
      ( "recovered_sas",
        Json.Int (List.fold_left (fun a rep -> a + rep.r_recovered) 0 r.repeats)
      );
      ( "gate_exits",
        Json.List
          (List.map
             (fun rep ->
               match rep.r_gate_exit with
               | Some c -> Json.Int c
               | None -> Json.Null)
             r.repeats) );
      ("ok", Json.Bool (cell_ok r));
      ("errors", Json.List errors);
    ]

let run_cell ~bin ~workdir ~params ~log (cell : cell) =
  let bound = Resets_core.Analysis.max_fresh_discards ~kq:params.k in
  (* Re-establishment and a lost disk start a fresh sequence space:
     recovery of stored state is impossible by construction, so the
     daemon-side gate drops its recovery requirement there (the
     heartbeat-side convergence check still applies in full). *)
  let expect_recovery = cell.scope <> Disk_lost in
  let repeats =
    List.init params.repeats (fun r ->
        log (Printf.sprintf "cell %s rep %d" (cell_id cell) r);
        run_repeat ~bin
          ~dir:(Filename.concat (Filename.concat workdir (cell_id cell))
                  (Printf.sprintf "rep%d" r))
          ~params ~cell ~kill_signal:Sys.sigkill ~recv_extra:[] ~send_extra:[]
          ~expect_recovery ())
  in
  { cell; sas = sas_of_scope cell.scope; bound; repeats }

(* ------------------------------------------------------------------ *)
(* Kill-mode probes: SIGTERM graceful flush, SIGSTOP watchdog.         *)

let run_sigterm_probe ~bin ~workdir ~params ~log () =
  log "kill-mode probe: sigterm";
  let cell = { scope = Whole_sadb; discipline = Per_sa; churn = Steady } in
  let dir = Filename.concat workdir "kill-sigterm" in
  let r =
    run_repeat ~bin ~dir ~params ~cell ~kill_signal:Sys.sigterm ~recv_extra:[]
      ~send_extra:[] ~expect_recovery:true ()
  in
  (* The graceful incarnation must have left a terminal heartbeat, and
     the restart must recover at least the edge that heartbeat shows
     (the final blocking SAVE made the freshest edge durable). *)
  let hb = Heartbeat.load (Filename.concat dir "hb-recv.jsonl") in
  (* pids in order of first appearance = incarnation order *)
  let pids =
    List.fold_left
      (fun acc (l : Heartbeat.line) ->
        if List.mem l.pid acc then acc else acc @ [ l.pid ])
      [] hb
  in
  let term =
    match pids with
    | first :: _ -> Heartbeat.terminal (Heartbeat.of_pid hb ~pid:first)
    | [] -> None
  in
  let graceful = match term with
    | Some l -> l.Heartbeat.reason = Some "sigterm"
    | None -> false
  in
  let recovered_fresh =
    match (term, pids) with
    | Some tl, _ :: rest -> (
      let final_edges =
        List.map (fun sa -> (sa.Heartbeat.spi, sa.Heartbeat.edge)) tl.sas
      in
      match rest with
      | [] -> false
      | _ ->
        let last_pid = List.nth pids (List.length pids - 1) in
        (match Heartbeat.last (Heartbeat.of_pid hb ~pid:last_pid) with
        | Some l ->
          List.for_all
            (fun sa ->
              match List.assoc_opt sa.Heartbeat.spi final_edges with
              | Some e -> sa.Heartbeat.recovered && sa.Heartbeat.recovered_from >= e
              | None -> false)
            l.sas
        | None -> false))
    | _ -> false
  in
  let ok = graceful && recovered_fresh && r.r_converged in
  ( Json.Obj
      [
        ("mode", Json.String "sigterm");
        ("terminal_heartbeat", Json.Bool (term <> None));
        ("reason_sigterm", Json.Bool graceful);
        ("recovered_from_final_edge", Json.Bool recovered_fresh);
        ("converged", Json.Bool r.r_converged);
        ("ok", Json.Bool ok);
      ],
    ok )

let run_sigstop_probe ~bin ~workdir ~params ~log () =
  log "kill-mode probe: sigstop (watchdog)";
  let cell = { scope = Whole_sadb; discipline = Per_sa; churn = Steady } in
  let dir = Filename.concat workdir "kill-sigstop" in
  (* The stalled daemon is invisible to [kill]-style scheduling: only
     the watchdog notices the heartbeat file has stopped growing. *)
  let stall = Float.max 0.8 (6. *. params.heartbeat_s) in
  let sup, recv_slot, hb_recv, _ =
    launch_pair ~bin ~dir ~params ~cell ~stall ~recv_extra:[] ~send_extra:[]
      ~expect_recovery:true ()
  in
  let warm () =
    match Heartbeat.last (Heartbeat.load hb_recv) with
    | Some line -> Heartbeat.all_delivering line
    | None -> false
  in
  let warmed = Supervisor.tick_until sup ~timeout:(params.warmup_s +. 10.) warm in
  let pid0 =
    match Supervisor.proc recv_slot with
    | Some p -> Proc.pid p
    | None -> -1
  in
  (* Stall, do not kill: the process stays alive but silent. *)
  (match Supervisor.proc recv_slot with
  | Some p -> Proc.kill p Sys.sigstop
  | None -> ());
  let respawned () =
    Supervisor.watchdog_restarts recv_slot >= 1
    &&
    match Supervisor.proc recv_slot with
    | Some p -> Proc.pid p <> pid0 && Proc.alive p
    | None -> false
  in
  let caught =
    Supervisor.tick_until sup ~timeout:(stall +. 15.) respawned
  in
  let converged =
    caught
    && Supervisor.tick_until sup ~timeout:(params.post_s +. 10.) (fun () ->
           match Supervisor.proc recv_slot with
           | Some p -> (
             match Heartbeat.last (Heartbeat.of_pid (Heartbeat.load hb_recv) ~pid:(Proc.pid p)) with
             | Some l -> Heartbeat.all_delivering l
             | None -> false)
           | None -> true (* already exited after its bounded duration *))
  in
  Supervisor.stop sup ~grace:3.;
  let ok = warmed && caught && converged in
  ( Json.Obj
      [
        ("mode", Json.String "sigstop");
        ("watchdog_restarts", Json.Int (Supervisor.watchdog_restarts recv_slot));
        ("stall_deadline_s", Json.Float stall);
        ("caught", Json.Bool caught);
        ("converged", Json.Bool converged);
        ("ok", Json.Bool ok);
      ],
    ok )

(* ------------------------------------------------------------------ *)
(* Faulty cells: the same crash-restart experiment against an impaired
   wire and against a misbehaving file store.                          *)

let run_faulty ~bin ~workdir ~params ~log () =
  let cell = { scope = Whole_sadb; discipline = Per_sa; churn = Steady } in
  let bound = Resets_core.Analysis.max_fresh_discards ~kq:params.k in
  log "faulty cell: store faults";
  let store_spec = "write_fail=0.05,torn=0.03,corrupt=0.02,stale=0.02" in
  let r_store =
    run_repeat ~bin
      ~dir:(Filename.concat workdir "faulty-store")
      ~params ~cell ~kill_signal:Sys.sigkill
      ~recv_extra:
        [ "--store-faults"; store_spec; "--fault-seed"; string_of_int params.seed ]
      ~send_extra:[] ~expect_recovery:true ()
  in
  log "faulty cell: wire impairment";
  let impair_spec = "drop=0.05,dup=0.02,reorder=0.02:10ms,ge=0.02:0.3:0.8" in
  let r_wire =
    run_repeat ~bin
      ~dir:(Filename.concat workdir "faulty-wire")
      ~params ~cell ~kill_signal:Sys.sigkill ~recv_extra:[]
      ~send_extra:[ "--impair"; impair_spec ]
      ~expect_recovery:true ()
  in
  let one name spec r =
    let ok =
      cell_ok { cell; sas = sas_of_scope cell.scope; bound; repeats = [ r ] }
    in
    ( Json.Obj
        [
          ("fault", Json.String name);
          ("spec", Json.String spec);
          ("bound_2k", Json.Int bound);
          ( "lost_max",
            Json.Int (List.fold_left max 0 r.r_lost) );
          ("converged", Json.Bool r.r_converged);
          ( "gate_exit",
            match r.r_gate_exit with Some c -> Json.Int c | None -> Json.Null );
          ("ok", Json.Bool ok);
        ],
      ok )
  in
  let j1, ok1 = one "store" store_spec r_store in
  let j2, ok2 = one "wire" impair_spec r_wire in
  ([ j1; j2 ], ok1 && ok2)

(* ------------------------------------------------------------------ *)

let run ~bin ~workdir ?(log = fun _ -> ()) ?(cells = full_cells)
    ?(params = full_params) ?(kill_modes = true) ?(faulty = true) () =
  mkdir_p workdir;
  let cell_results = List.map (run_cell ~bin ~workdir ~params ~log) cells in
  let kill_results, kill_ok =
    if kill_modes then begin
      let j1, ok1 = run_sigterm_probe ~bin ~workdir ~params ~log () in
      let j2, ok2 = run_sigstop_probe ~bin ~workdir ~params ~log () in
      ([ j1; j2 ], ok1 && ok2)
    end
    else ([], true)
  in
  let faulty_results, faulty_ok =
    if faulty then run_faulty ~bin ~workdir ~params ~log ()
    else ([], true)
  in
  let cells_ok = List.for_all cell_ok cell_results in
  let all_ok = cells_ok && kill_ok && faulty_ok in
  ( Json.Obj
      [
        ("k", Json.Int params.k);
        ( "bound_2k",
          Json.Int (Resets_core.Analysis.max_fresh_discards ~kq:params.k) );
        ("rate_pps", Json.Float params.rate_pps);
        ("warmup_s", Json.Float params.warmup_s);
        ("downtime_s", Json.Float params.downtime_s);
        ("post_s", Json.Float params.post_s);
        ("repeats", Json.Int params.repeats);
        ("seed", Json.Int params.seed);
        ("cells", Json.List (List.map json_of_cell_result cell_results));
        ("kill_modes", Json.List kill_results);
        ("faulty", Json.List faulty_results);
        ("cells_ok", Json.Bool cells_ok);
        ("kill_modes_ok", Json.Bool kill_ok);
        ("faulty_ok", Json.Bool faulty_ok);
        ("all_ok", Json.Bool all_ok);
      ],
    all_ok )
