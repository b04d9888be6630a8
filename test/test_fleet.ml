(* Unit tests for the fleet layer the E17 matrix is built from: the
   heartbeat JSONL reader (the supervisor's only view of a daemon),
   the reap-safe process wrapper, and the supervisor itself — crash
   respawn with incarnation-indexed argv, scripted kill with store
   wipe, and the heartbeat watchdog. Process tests use /bin/sh, not
   the daemon, so they stay fast and test one mechanism each; the
   end-to-end daemon experiments live in bench E17. *)

module Heartbeat = Resets_fleet.Heartbeat
module Proc = Resets_fleet.Proc
module Supervisor = Resets_fleet.Supervisor

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ensure_dir d =
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Supervisor.wipe_dir d

(* A fresh directory for [f], removed with its contents however [f]
   returns. *)
let with_scratch_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "resets-fleet-%s-%d" name (Unix.getpid ()))
  in
  let remove () =
    Supervisor.wipe_dir dir;
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  ensure_dir dir;
  Fun.protect ~finally:remove (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Heartbeat reader *)

let hb_line ?(pid = 41) ?(ts_ns = 1_000) ?event ?reason
    ?(sas = [ (7, 5, 0, 0) ]) () =
  let sa_json (spi, delivered, fresh_rejected, lost) =
    Printf.sprintf
      {|{"spi":%d,"delivered":%d,"fresh_rejected":%d,"lost":%d,"next_seq":9}|}
      spi delivered fresh_rejected lost
  in
  let opt name = function
    | None -> ""
    | Some v -> Printf.sprintf {|"%s":"%s",|} name v
  in
  Printf.sprintf {|{%s%s"pid":%d,"ts_ns":%d,"role":"recv","sas":[%s]}|}
    (opt "event" event) (opt "reason" reason) pid ts_ns
    (String.concat "," (List.map sa_json sas))

let test_hb_parse () =
  (match Heartbeat.parse_line (hb_line ()) with
  | None -> Alcotest.fail "valid line did not parse"
  | Some l ->
    check_int "pid" 41 l.Heartbeat.pid;
    check_bool "no event" true (l.Heartbeat.event = None);
    (match l.Heartbeat.sas with
    | [ sa ] ->
      check_int "spi" 7 sa.Heartbeat.spi;
      check_int "delivered" 5 sa.Heartbeat.delivered;
      check_int "lost" 0 sa.Heartbeat.lost
    | _ -> Alcotest.fail "expected one SA"));
  check_bool "garbage skipped" true (Heartbeat.parse_line "not json" = None);
  check_bool "pid-less JSON skipped" true
    (Heartbeat.parse_line {|{"role":"recv"}|} = None)

let test_hb_lost_fallback () =
  (* a writer predating the [lost] field: fall back to fresh_rejected *)
  let old = {|{"pid":1,"ts_ns":5,"sas":[{"spi":3,"fresh_rejected":4}]}|} in
  match Heartbeat.parse_line old with
  | Some { Heartbeat.sas = [ sa ]; _ } ->
    check_int "lost falls back" 4 sa.Heartbeat.lost
  | _ -> Alcotest.fail "line did not parse"

let test_hb_file_and_queries () =
  with_scratch_dir "hb" @@ fun dir ->
  let path = Filename.concat dir "hb.jsonl" in
  let oc = open_out path in
  List.iter
    (fun l -> output_string oc (l ^ "\n"))
    [
      hb_line ~pid:10 ~event:"startup" ~sas:[] ();
      "garbage line";
      hb_line ~pid:10 ~ts_ns:100 ~sas:[ (7, 0, 0, 0) ] ();
      hb_line ~pid:10 ~ts_ns:200 ~sas:[ (7, 3, 1, 0) ] ();
      hb_line ~pid:10 ~event:"shutdown" ~reason:"sigterm" ();
      (* next incarnation interleaves into the same file *)
      hb_line ~pid:11 ~ts_ns:300 ~sas:[ (7, 0, 0, 0) ] ();
      hb_line ~pid:11 ~ts_ns:400 ~sas:[ (7, 9, 2, 1) ] ();
    ];
  close_out oc;
  let lines = Heartbeat.load path in
  check_int "garbage skipped, rest kept" 6 (List.length lines);
  let first = Heartbeat.of_pid lines ~pid:10 in
  let second = Heartbeat.of_pid lines ~pid:11 in
  check_int "incarnations split" 4 (List.length first);
  check_int "incarnations split (2)" 2 (List.length second);
  (match Heartbeat.terminal first with
  | Some l -> check_bool "reason" true (l.Heartbeat.reason = Some "sigterm")
  | None -> Alcotest.fail "terminal line missed");
  check_bool "crash has no terminal" true (Heartbeat.terminal second = None);
  (match Heartbeat.first_delivering second with
  | Some l -> check_int "convergence instant" 400 l.Heartbeat.ts_ns
  | None -> Alcotest.fail "first_delivering missed");
  match Heartbeat.last second with
  | Some l ->
    check_int "lost summed" 1 (Heartbeat.total (fun sa -> sa.Heartbeat.lost) l)
  | None -> Alcotest.fail "last missed"

(* The daemon writes its per-SA rows with [sa_to_json]; the fleet reads
   them back with [parse_line], field for field. *)
let prop_sa_roundtrip =
  let open QCheck in
  let sa =
    Gen.map2
      (fun recovered ints ->
        match ints with
        | [ spi; recovered_from; sent; next_seq; delivered; min_seq; max_seq;
            fresh_rejected; lost; dups; bad_icv; edge; k_now ] ->
          {
            Heartbeat.spi;
            recovered;
            recovered_from;
            sent;
            next_seq;
            delivered;
            min_seq;
            max_seq;
            fresh_rejected;
            lost;
            dups;
            bad_icv;
            edge;
            k_now;
          }
        | _ -> assert false)
      Gen.bool
      (Gen.list_repeat 13 Gen.int)
  in
  let to_string s = Resets_util.Json.to_string (Heartbeat.sa_to_json s) in
  Test.make ~name:"parse_line reads back sa_to_json" ~count:300
    (make ~print:to_string sa)
    (fun s ->
      let line = Printf.sprintf {|{"pid":1,"sas":[%s]}|} (to_string s) in
      match Heartbeat.parse_line line with
      | Some { Heartbeat.sas = [ s' ]; _ } -> s' = s
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Proc *)

let test_proc_exit_and_log () =
  with_scratch_dir "proc" @@ fun dir ->
  let log = Filename.concat dir "p.log" in
  let p =
    Proc.spawn ~argv:[ "/bin/sh"; "-c"; "echo from-child; exit 7" ] ~log ()
  in
  (match Proc.wait ~timeout:5.0 p with
  | Some (Proc.Exited 7) -> ()
  | Some s ->
    Alcotest.failf "wrong status: %s"
      (match s with
      | Proc.Running -> "running"
      | Proc.Exited c -> Printf.sprintf "exited %d" c
      | Proc.Signaled s -> Printf.sprintf "signaled %d" s)
  | None -> Alcotest.fail "timed out");
  (* status is cached: polling a reaped child stays stable *)
  check_bool "poll after reap" true (Proc.poll p = Proc.Exited 7);
  check_bool "not alive" false (Proc.alive p);
  let ic = open_in log in
  let line = input_line ic in
  close_in ic;
  check_bool "stdout landed in the log" true (line = "from-child")

let test_proc_kill () =
  with_scratch_dir "kill" @@ fun dir ->
  let p =
    Proc.spawn
      ~argv:[ "/bin/sh"; "-c"; "sleep 30" ]
      ~log:(Filename.concat dir "p.log") ()
  in
  check_bool "alive" true (Proc.alive p);
  Proc.kill p Sys.sigkill;
  (match Proc.wait ~timeout:5.0 p with
  | Some (Proc.Signaled s) when s = Sys.sigkill -> ()
  | _ -> Alcotest.fail "expected Signaled sigkill");
  (* killing a dead process is a no-op, not an exception *)
  Proc.kill p Sys.sigterm

(* ------------------------------------------------------------------ *)
(* Supervisor *)

let tickf sup ~timeout cond =
  check_bool "supervisor condition reached" true
    (Supervisor.tick_until sup ~timeout cond)

let test_sup_crash_respawn_incarnations () =
  with_scratch_dir "sup-crash" @@ fun dir ->
  let marks = Filename.concat dir "marks" in
  let sup = Supervisor.create () in
  let slot =
    Supervisor.add sup
      (Supervisor.default_spec ~name:"d"
         ~argv:(fun inc ->
           [
             "/bin/sh"; "-c";
             Printf.sprintf "echo inc%d >> %s; sleep 30" inc
               (Filename.quote marks);
           ])
         ~log:(Filename.concat dir "d.log"))
  in
  Supervisor.start sup;
  let p0 = Option.get (Supervisor.proc slot) in
  tickf sup ~timeout:5.0 (fun () -> Sys.file_exists marks);
  (* unscripted death: the supervisor notices and respawns with the
     next incarnation's argv after the backoff *)
  Proc.kill p0 Sys.sigkill;
  tickf sup ~timeout:5.0 (fun () ->
      Supervisor.restarts slot >= 1
      && (match Supervisor.proc slot with
         | Some p -> Proc.alive p && Proc.pid p <> Proc.pid p0
         | None -> false));
  tickf sup ~timeout:5.0 (fun () ->
      let ic = open_in marks in
      let n = in_channel_length ic in
      close_in ic;
      n >= 10 (* "inc0\ninc1\n" *));
  let ic = open_in marks in
  let a = input_line ic in
  let b = input_line ic in
  close_in ic;
  check_bool "incarnation-indexed argv" true (a = "inc0" && b = "inc1");
  check_int "both incarnations recorded" 2
    (List.length (Supervisor.incarnations slot));
  Supervisor.stop sup ~grace:0.2

let test_sup_scripted_kill_wipes () =
  with_scratch_dir "sup-wipe" @@ fun dir ->
  let store = Filename.concat dir "store" in
  ensure_dir store;
  let oc = open_out (Filename.concat store "spi-1-seq") in
  output_string oc "42";
  close_out oc;
  let sup = Supervisor.create () in
  let slot =
    Supervisor.add sup
      (Supervisor.default_spec ~name:"d"
         ~argv:(fun _ -> [ "/bin/sh"; "-c"; "sleep 30" ])
         ~log:(Filename.concat dir "d.log"))
  in
  Supervisor.start sup;
  let p0 = Option.get (Supervisor.proc slot) in
  Supervisor.kill ~wipe:[ store ] slot ~signal:Sys.sigkill ~hold:0.05;
  tickf sup ~timeout:5.0 (fun () ->
      match Supervisor.proc slot with
      | Some p -> Proc.alive p && Proc.pid p <> Proc.pid p0
      | None -> false);
  check_bool "store dir survives the wipe" true
    (Sys.is_directory store);
  check_int "store contents gone" 0 (Array.length (Sys.readdir store));
  Supervisor.stop sup ~grace:0.2

let test_sup_watchdog () =
  with_scratch_dir "sup-dog" @@ fun dir ->
  let hb = Filename.concat dir "hb.jsonl" in
  let sup = Supervisor.create () in
  let slot =
    Supervisor.add sup
      {
        (Supervisor.default_spec ~name:"d"
           ~argv:(fun _ ->
             [
               "/bin/sh"; "-c";
               (* heartbeat three times, then stall while staying
                  alive — only the watchdog can catch this *)
               Printf.sprintf
                 "for i in 1 2 3; do echo x >> %s; sleep 0.05; done; sleep 30"
                 (Filename.quote hb);
             ])
           ~log:(Filename.concat dir "d.log"))
        with
        Supervisor.watchdog = Some (hb, 0.4);
      }
  in
  Supervisor.start sup;
  tickf sup ~timeout:10.0 (fun () -> Supervisor.watchdog_restarts slot >= 1);
  tickf sup ~timeout:5.0 (fun () ->
      match Supervisor.proc slot with Some p -> Proc.alive p | None -> false);
  Supervisor.stop sup ~grace:0.2

let test_wipe_dir_recursive () =
  with_scratch_dir "wipe" @@ fun dir ->
  let sub = Filename.concat dir "sub" in
  ensure_dir sub;
  let oc = open_out (Filename.concat sub "f") in
  close_out oc;
  let oc = open_out (Filename.concat dir "g") in
  close_out oc;
  Supervisor.wipe_dir dir;
  check_bool "dir kept" true (Sys.is_directory dir);
  check_int "emptied recursively" 0 (Array.length (Sys.readdir dir))

let () =
  Alcotest.run "fleet"
    [
      ( "heartbeat",
        [
          Alcotest.test_case "parse" `Quick test_hb_parse;
          Alcotest.test_case "lost fallback" `Quick test_hb_lost_fallback;
          Alcotest.test_case "file queries" `Quick test_hb_file_and_queries;
          QCheck_alcotest.to_alcotest prop_sa_roundtrip;
        ] );
      ( "proc",
        [
          Alcotest.test_case "exit and log" `Quick test_proc_exit_and_log;
          Alcotest.test_case "kill" `Quick test_proc_kill;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "crash respawn, incarnation argv" `Quick
            test_sup_crash_respawn_incarnations;
          Alcotest.test_case "scripted kill wipes store" `Quick
            test_sup_scripted_kill_wipes;
          Alcotest.test_case "watchdog catches a stall" `Quick
            test_sup_watchdog;
          Alcotest.test_case "wipe_dir" `Quick test_wipe_dir_recursive;
        ] );
    ]
