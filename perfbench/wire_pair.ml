(* wire-steady: a `serve --role send` / `serve --role recv` pair over
   UDP loopback, spawned and read through the fleet layer.

   Everything is observed from outside the daemons: their heartbeat
   JSONL and final JSON reports, /proc for per-thread CPU and peak
   memory, the rusage the kernel hands the parent at reap time for
   whole-process CPU, and the OCaml runtime's exit-time GC report
   (OCAMLRUNPARAM=v=0x400) for allocation. *)

open Resets_util
open Common
module Proc = Resets_fleet.Proc
module Heartbeat = Resets_fleet.Heartbeat

(* 8 SAs x 5000 pps offered, open loop. The stores live inside the
   benchmark's checkout, on whatever disk holds it, so every SAVE is a
   real fsync; SAVEs every 1024 frames on both sides keep that cost
   small beside the datapath. *)
let sas = 8
let rate = 5000.
let k = 1024
let recv_hb = 0.01  (* receiver heartbeat period, s: sets set-up's timing resolution *)
let send_hb = 0.1
let rcvbuf = 8388608

(* Seed-derived inputs: the SPI base and the shared secret. *)
let inputs p =
  let g = prng p ~stream:1 in
  let spi_base = 0x1000 + (Prng.int g 0x100000 * 16) in
  let secret = Printf.sprintf "perfbench-%d-%016Lx" p.seed (Prng.next_int64 g) in
  (spi_base, secret)

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with Unix.ADDR_INET (_, port) -> port | _ -> 0)

(* ------------------------------------------------------------------ *)
(* One daemon process and what has been seen of it from outside.       *)

type daemon = {
  proc : Proc.t;
  mutable hwm_kb : int;
  mutable last_tasks : task list;  (** last /proc sample while alive *)
}

(* Every daemon this run started, so that any exit path can reap them. *)
let live : daemon list ref = ref []

let spawn ~log argv =
  let d = { proc = Proc.spawn ~argv ~log (); hwm_kb = 0; last_tasks = [] } in
  live := d :: !live;
  d

let sample d =
  if Proc.alive d.proc then begin
    let pid = Proc.pid d.proc in
    d.hwm_kb <- max d.hwm_kb (vmhwm_kb pid);
    let ts = tasks pid in
    if List.length ts >= List.length d.last_tasks then d.last_tasks <- ts
  end

let reap_all () =
  List.iter
    (fun d ->
      Proc.kill d.proc Sys.sigkill;
      ignore (Proc.wait ~timeout:10. d.proc))
    !live;
  live := []

let stop d signal =
  sample d;
  Proc.kill d.proc signal;
  ignore (Proc.wait ~timeout:20. d.proc)

(* Sleep in small steps, sampling the given daemons, until [until ()]
   or the deadline. Returns whether [until] became true. *)
let watch ?(step = 0.02) ~deadline ds until =
  let rec go () =
    List.iter sample ds;
    if until () then true
    else if wall () >= deadline then false
    else begin
      Unix.sleepf step;
      go ()
    end
  in
  go ()

(* Main thread (tid = pid) versus the busiest other thread, which is
   the worker domain; OCaml's per-domain helper threads stay idle. *)
let main_and_worker d =
  let pid = Proc.pid d.proc in
  let main = List.find_opt (fun t -> t.tid = pid) d.last_tasks in
  let others = List.filter (fun t -> t.tid <> pid) d.last_tasks in
  let worker =
    List.fold_left
      (fun acc t -> match acc with Some w when w.run_ns >= t.run_ns -> acc | _ -> Some t)
      None others
  in
  (main, worker)

(* Exit-time GC report on the daemon's log. *)
let minor_words log =
  match read_file log with
  | None -> None
  | Some s ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "minor_words"; v ] -> float_of_string_opt (String.trim v)
        | _ -> None)
      (String.split_on_char '\n' s)

(* ------------------------------------------------------------------ *)
(* Reading the daemons' own files                                      *)

let jint name j = Option.value ~default:0 (Option.bind (Json.member name j) Json.as_int)

let jfloat name j =
  match Json.member name j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.

let has_startup path pid =
  List.exists
    (fun (l : Heartbeat.line) -> l.event = Some "startup")
    (Heartbeat.of_pid (Heartbeat.load path) ~pid)

(* One incarnation's heartbeat lines, each with its raw JSON for the
   fields Heartbeat.line does not carry (save latency, buffer sizes). *)
let heartbeats path ~pid =
  Option.value ~default:"" (read_file path)
  |> String.split_on_char '\n'
  |> List.filter_map (fun s ->
         match Heartbeat.parse_line s with
         | Some l when l.Heartbeat.pid = pid -> (
           match Json.parse s with Ok j -> Some (l, j) | Error _ -> None)
         | _ -> None)

let startup_json hb =
  List.find_map
    (fun ((l : Heartbeat.line), j) -> if l.event = Some "startup" then Some j else None)
    hb

let shutdown_json hb =
  Option.map (fun l -> List.assq l hb) (Heartbeat.terminal (List.map fst hb))

(* Save-latency (p50, p99) over the daemon's workers, in ns. *)
let save_latency j =
  match Option.bind (Json.member "save_latency_ns" j) Json.as_list with
  | Some (w :: _) -> (jfloat "p50" w, jfloat "p99" w)
  | _ -> (0., 0.)

let read_report path =
  match read_file path with
  | None -> None
  | Some s -> ( match Json.parse s with Ok j -> Some j | Error _ -> None)

let any_delivered (l : Heartbeat.line) =
  l.event = None && Heartbeat.total (fun sa -> sa.delivered) l > 0

(* ------------------------------------------------------------------ *)
(* Argument vectors                                                    *)

let common_args p ~spi_base ~secret ~store ~stats ~heartbeat =
  p.exe :: "serve"
  :: [
       "--sas"; string_of_int sas;
       "-k"; string_of_int k;
       "--discipline"; "per-sa";
       "--store"; store;
       "--stats"; stats;
       "--heartbeat"; Printf.sprintf "%g" heartbeat;
       "--spi-base"; string_of_int spi_base;
       "--secret"; secret;
       "--quiet";
     ]

let recv_argv p ~port ~spi_base ~secret ~dir =
  common_args p ~spi_base ~secret ~store:(Filename.concat dir "store-recv")
    ~stats:(Filename.concat dir "hb-recv.jsonl") ~heartbeat:recv_hb
  @ [
      "--role"; "recv";
      "--bind"; Printf.sprintf "udp:127.0.0.1:%d" port;
      "--rcvbuf"; string_of_int rcvbuf;
      "--duration"; "3600";
      "--graceful";
      "--json"; Filename.concat dir "rep-recv.json";
    ]

let send_argv p ~port ~spi_base ~secret ~dir ~duration =
  common_args p ~spi_base ~secret ~store:(Filename.concat dir "store-send")
    ~stats:(Filename.concat dir "hb-send.jsonl") ~heartbeat:send_hb
  @ [
      "--role"; "send";
      "--peer"; Printf.sprintf "udp:127.0.0.1:%d" port;
      "--rate"; Printf.sprintf "%g" rate;
      "--duration"; Printf.sprintf "%g" duration;
      "--json"; Filename.concat dir "rep-send.json";
    ]

(* ------------------------------------------------------------------ *)
(* A session: one pair, from the receiver's spawn to both reports.     *)

type session = {
  setup_s : float;  (** receiver spawn to first delivered frame *)
  sent : int;
  scheduled : float;  (** frames the open-loop generator was due to send *)
  send_elapsed : float;
  delivered : int;
  rx_frames : int;
  rx_batches : int;
  tx_frames : int;
  tx_flushes : int;
  dups : int;
  bad_icv : int;
  recv_saves : int;
  send_saves : int;
  recv_save_p50 : float;
  recv_save_p99 : float;
  send_save_p50 : float;
  peak_kb : int;
  recv_words : float option;
  send_words : float option;
  recv_main : task option;
  recv_worker : task option;
  send_worker : task option;
  rcvbuf_eff : int;
  sndbuf_eff : int;
}

exception Setup_failed of string

let run_session p ~spi_base ~secret ~dir ~duration =
  Sys.mkdir dir 0o755;
  let port = free_port () in
  let hb_recv = Filename.concat dir "hb-recv.jsonl" in
  let hb_send = Filename.concat dir "hb-send.jsonl" in
  let log name = Filename.concat dir (name ^ ".log") in
  let recv = spawn ~log:(log "recv") (recv_argv p ~port ~spi_base ~secret ~dir) in
  let recv_pid = Proc.pid recv.proc in
  if not (watch ~deadline:(wall () +. 30.) [ recv ] (fun () -> has_startup hb_recv recv_pid))
  then raise (Setup_failed "receiver wrote no startup heartbeat within 30 s");
  let s = spawn ~log:(log "send") (send_argv p ~port ~spi_base ~secret ~dir ~duration) in
  if
    not
      (watch ~deadline:(wall () +. duration +. 30.) [ recv; s ] (fun () ->
           not (Proc.alive s.proc)))
  then raise (Setup_failed "sender did not finish within its duration + 30 s");
  (* let the last frames cross, then stop the receiver cleanly *)
  ignore (watch ~deadline:(wall () +. 0.2) [ recv ] (fun () -> false));
  stop recv Sys.sigterm;
  let rhb = heartbeats hb_recv ~pid:recv_pid in
  let shb = heartbeats hb_send ~pid:(Proc.pid s.proc) in
  let rep_recv, rep_send =
    match
      ( read_report (Filename.concat dir "rep-recv.json"),
        read_report (Filename.concat dir "rep-send.json") )
    with
    | Some r, Some s -> (r, s)
    | None, _ -> raise (Setup_failed "receiver left no report")
    | _, None -> raise (Setup_failed "sender left no report")
  in
  let setup_s =
    match List.find_opt any_delivered (List.map fst rhb) with
    | Some l -> (float_of_int l.Heartbeat.ts_ns /. 1e9) -. Proc.started_at recv.proc
    | None -> raise (Setup_failed "no frame was delivered")
  in
  let per_sa = Option.value ~default:[] (Option.bind (Json.member "per_sa" rep_recv) Json.as_list) in
  let sa_sum f = sum_i (List.map (jint f) per_sa) in
  (* the shutdown lines carry the save counts and latency percentiles *)
  let save_count j =
    match Option.bind (Json.member "save_latency_ns" j) Json.as_list with
    | Some (w :: _) -> jint "count" w
    | _ -> 0
  in
  let recv_term = shutdown_json rhb and send_term = shutdown_json shb in
  let rp50, rp99 = Option.fold ~none:(0., 0.) ~some:save_latency recv_term in
  let sp50, _ = Option.fold ~none:(0., 0.) ~some:save_latency send_term in
  let rmain, rworker = main_and_worker recv in
  let _, sworker = main_and_worker s in
  let buf j name = Option.fold ~none:0 ~some:(jint name) j in
  let wire_count rep name = Option.fold ~none:0 ~some:(jint name) (Json.member "wire" rep) in
  let send_elapsed = jfloat "elapsed_s" rep_send in
  let delivered = jint "delivered" rep_recv and sent = jint "sent" rep_send in
  Printf.printf "session %s: setup %.3f s, delivered %d of %d sent, peak kB recv %d send %d\n%!"
    (Filename.basename dir) setup_s delivered sent recv.hwm_kb s.hwm_kb;
  {
    setup_s;
    sent;
    scheduled = rate *. float_of_int sas *. send_elapsed;
    send_elapsed;
    delivered;
    rx_frames = jint "wire_rx" rep_recv;
    rx_batches = wire_count rep_recv "rx_batches";
    tx_frames = jint "wire_tx" rep_send;
    tx_flushes = wire_count rep_send "tx_flushes";
    dups = sa_sum "dups";
    bad_icv = sa_sum "bad_icv";
    recv_saves = Option.fold ~none:0 ~some:save_count recv_term;
    send_saves = Option.fold ~none:0 ~some:save_count send_term;
    recv_save_p50 = rp50;
    recv_save_p99 = rp99;
    send_save_p50 = sp50;
    peak_kb = recv.hwm_kb + s.hwm_kb;
    recv_words = minor_words (Proc.log recv.proc);
    send_words = minor_words (Proc.log s.proc);
    recv_main = rmain;
    recv_worker = rworker;
    send_worker = sworker;
    rcvbuf_eff = buf (startup_json rhb) "rcvbuf_effective";
    sndbuf_eff = buf (startup_json shb) "sndbuf_effective";
  }

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)

(* A run's seconds go to three back-to-back pairs, so that set-up is
   measured three times per run. *)
let sessions_per_run = 3

let run p =
  let spi_base, secret = inputs p in
  Unix.putenv "OCAMLRUNPARAM" "v=0x400";
  let duration = p.seconds /. float_of_int sessions_per_run in
  let cpu_u0, cpu_s0 = children_cpu () in
  let sessions =
    Fun.protect ~finally:reap_all (fun () ->
        List.init sessions_per_run (fun i ->
            let dir = Filename.concat p.dir (Printf.sprintf "session-%d" i) in
            let s = run_session p ~spi_base ~secret ~dir ~duration in
            live := [];
            s))
  in
  let cpu_u1, cpu_s1 = children_cpu () in
  let cpu = cpu_u1 -. cpu_u0 +. (cpu_s1 -. cpu_s0) in
  let tot f = sum_i (List.map f sessions) in
  let totf f = sum_f (List.map f sessions) in
  let delivered = tot (fun s -> s.delivered) in
  let sent = tot (fun s -> s.sent) in
  let words f frames =
    let ws = List.filter_map f sessions in
    if List.length ws = List.length sessions then ratio (sum_f ws) (float_of_int frames) else 0.
  in
  let rx_frames = tot (fun s -> s.rx_frames) in
  let alloc = words (fun s -> s.send_words) sent +. words (fun s -> s.recv_words) rx_frames in
  let med f = median (List.map f sessions) in
  (* receiver threads per frame received, sender threads per frame sent *)
  let thread_us f pick frames =
    ratio (totf (fun s -> match f s with Some t -> pick t | None -> 0.)) (float_of_int frames)
    *. 1e6
  in
  let tx_frames = tot (fun s -> s.tx_frames) in
  let user t = float_of_int t.utime /. clk_tck and sys t = float_of_int t.stime /. clk_tck in
  let run_s t = float_of_int t.run_ns /. 1e9 in
  let metrics =
    [
      metric "setup_s" "s" (med (fun s -> s.setup_s));
      metric "throughput" "1/s"
        (ratio (float_of_int delivered) (totf (fun s -> s.send_elapsed)));
      metric "cpu_us_per_op" "us" (ratio cpu (float_of_int delivered) *. 1e6);
      metric "peak_rss_mb" "MB"
        (float_of_int (List.fold_left (fun acc s -> max acc s.peak_kb) 0 sessions) /. 1024.);
    ]
  in
  let saves = tot (fun s -> s.recv_saves + s.send_saves) in
  let layer =
    [
      metric "gc.alloc_words_per_op" "words" alloc;
      metric "net.rx_main_us_per_frame" "us" (thread_us (fun s -> s.recv_main) run_s rx_frames);
      metric "net.rx_frames_per_batch" "frames" (iratio rx_frames (tot (fun s -> s.rx_batches)));
      metric "net.tx_frames_per_flush" "frames" (iratio tx_frames (tot (fun s -> s.tx_flushes)));
      metric "net.kernel_drops" "count" (float_of_int (tx_frames - rx_frames));
      metric "core.recv_worker_us_per_frame_user" "us"
        (thread_us (fun s -> s.recv_worker) user rx_frames);
      metric "core.recv_worker_us_per_frame_sys" "us"
        (thread_us (fun s -> s.recv_worker) sys rx_frames);
      metric "core.send_worker_us_per_frame_user" "us"
        (thread_us (fun s -> s.send_worker) user tx_frames);
      metric "core.send_worker_us_per_frame_sys" "us"
        (thread_us (fun s -> s.send_worker) sys tx_frames);
      metric "core.sender_behind_pct" "%"
        (100. *. (1. -. ratio (float_of_int sent) (totf (fun s -> s.scheduled))));
      metric "persist.recv_save_p50_us" "us" (med (fun s -> s.recv_save_p50 /. 1e3));
      metric "persist.recv_save_p99_us" "us" (med (fun s -> s.recv_save_p99 /. 1e3));
      metric "persist.send_save_p50_us" "us" (med (fun s -> s.send_save_p50 /. 1e3));
      metric "persist.saves_per_kframe" "count" (iratio saves delivered *. 1e3);
    ]
  in
  (* failures: every frame sent but not delivered, every duplicate and
     every ICV failure *)
  let undelivered = sent - delivered and dups = tot (fun s -> s.dups)
  and bad = tot (fun s -> s.bad_icv) in
  let failed = max 0 undelivered + dups + bad in
  let first = List.hd sessions in
  {
    correct = failed = 0;
    attempted = sent;
    failed;
    metrics;
    layer;
    notes =
      (if undelivered > 0 then [ Printf.sprintf "%d frames sent but not delivered" undelivered ] else [])
      @ (if dups > 0 then [ Printf.sprintf "%d duplicate deliveries" dups ] else [])
      @ if bad > 0 then [ Printf.sprintf "%d ICV failures" bad ] else [];
    env =
      [
        ("rcvbuf_effective", Json.Int first.rcvbuf_eff);
        ("sndbuf_effective", Json.Int first.sndbuf_eff);
        ("store_fs", Json.String (fs_type p.dir));
        ("traffic", Json.String "UDP over the loopback interface (127.0.0.1), not a real link");
        ("sessions", Json.Int (List.length sessions));
      ];
  }
