open Resets_util
open Resets_sim
open Resets_persist
open Resets_ipsec
open Resets_core

module Batch_io = Resets_net_stubs.Batch_io
module Heartbeat = Resets_fleet.Heartbeat

type role = Send | Recv

(* How this process treats persisted sequence state across a restart —
   the recovery-discipline axis of the E17 matrix. *)
type discipline =
  | Per_sa  (** one store key per SA, recover each independently *)
  | Coalesced  (** one snapshot file, all SAs together *)
  | Reestablish  (** ignore stored state; establish a fresh space *)

(* Background traffic shape during the run — the churn axis. The wire
   daemon has no IKE, so "rekey storm" is modelled at the wire level:
   the bursty on/off source that motivates message-counted SAVE
   intervals in the paper. *)
type churn = Steady | Storm | Mixed

type config = {
  role : role;
  bind : Transport_udp.addr option;
  peer : Transport_udp.addr option;
  secret : string;
  spi_base : int;
  sas : int;
  k : int;
  adaptive : bool;
  window : int;
  rate_pps : float;
  duration : float;
  store_dir : string;
  stats_path : string option;
  json_path : string option;
  expect_recovery : bool;
  heartbeat : float;
  batch : int;
  rcvbuf : int option;
  sndbuf : int option;
  discipline : discipline;
  churn : churn;
  impair : Link.faults;  (** send-path wire faults *)
  impair_seed : int;
  store_faults : Faults.spec;  (** file-store fault plan *)
  fault_seed : int;
  handle_signals : bool;
      (** install a SIGTERM handler: stop early, final blocking SAVE
          per SA, terminal heartbeat *)
}

let default =
  {
    role = Recv;
    bind = Some (Transport_udp.Unix_dgram "/tmp/resets.sock");
    peer = None;
    secret = "wire-shared-secret";
    spi_base = 0x5000;
    sas = 1;
    k = 8;
    adaptive = false;
    window = 64;
    rate_pps = 200.;
    duration = 3.;
    store_dir = "/tmp/resets-store";
    stats_path = None;
    json_path = None;
    expect_recovery = false;
    heartbeat = 0.25;
    batch = Batch_io.default_batch;
    rcvbuf = None;
    sndbuf = None;
    discipline = Per_sa;
    churn = Steady;
    impair = Link.no_faults;
    impair_seed = 1;
    store_faults = Faults.none;
    fault_seed = 1;
    handle_signals = false;
  }

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* A SIGTERM arriving mid-syscall surfaces as EINTR; the interrupted
   wait is treated as "nothing happened" so the loop re-checks its stop
   flag instead of dying. *)
let no_eintr ~default f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> default

(* The SAVE-interval policy every SA of this daemon runs under.
   [--adaptive] starts at [k] and re-derives K online from the
   wall-clock SAVE latency the file store actually exhibits. *)
let policy_mode cfg =
  if cfg.adaptive then K_policy.adaptive ~initial_k:cfg.k ()
  else K_policy.static cfg.k

(* Wrap a store so every completed save reports its wall-clock latency:
   into the daemon's sample (heartbeat percentiles) and, when adaptive,
   into the SA's policy. File-store saves are synchronous, so the
   callback runs before [save] returns and the measured latency is the
   real fsync+rename cost. *)
let timed_store ~sample ~policy store =
  {
    store with
    Store.save =
      (fun ~key ~value ~on_error ~on_complete ->
        let t0 = now_ns () in
        store.Store.save ~key ~value ~on_error ~on_complete:(fun () ->
            let dt = Int64.sub (now_ns ()) t0 in
            let dt = if Int64.compare dt 0L < 0 then 0L else dt in
            Stats.Sample.add sample (Int64.to_float dt);
            (match policy with
            | Some p -> K_policy.observe_save_latency p (Time.of_ns dt)
            | None -> ());
            on_complete ()));
  }

let role_name = function Send -> "send" | Recv -> "recv"

(* ------------------------------------------------------------------ *)
(* One record per SA: its endpoint and the counters its heartbeat row
   reads live.                                                         *)

type endpoint = Tx of Sender.t | Rx of Receiver.t

type sa = {
  index : int;  (** SPI = spi_base + index *)
  prior : int option;  (** stored value found at startup *)
  policy : K_policy.t;
  metrics : Metrics.t;
  min_seq : int ref;  (** lowest delivered seq this incarnation; 0 if none *)
  endpoint : endpoint;
}

(* A sender's metrics count only [sent], a receiver's never do, so one
   row shape serves both roles. *)
let stat_of cfg sa =
  let m = sa.metrics in
  {
    Heartbeat.spi = cfg.spi_base + sa.index;
    recovered = sa.prior <> None;
    recovered_from = Option.value sa.prior ~default:0;
    sent = m.Metrics.sent;
    next_seq = (match sa.endpoint with Tx s -> Sender.next_seq s | Rx _ -> 0);
    delivered = m.Metrics.delivered;
    min_seq = !(sa.min_seq);
    max_seq = Metrics.max_delivered_seq m;
    fresh_rejected = m.Metrics.fresh_rejected;
    lost = m.Metrics.fresh_rejected_undelivered;
    dups = m.Metrics.duplicate_deliveries;
    bad_icv = m.Metrics.bad_icv;
    edge = (match sa.endpoint with Rx r -> Receiver.right_edge r | Tx _ -> 0);
    k_now = K_policy.current sa.policy;
  }

(* The previous incarnation's per-SA counters: the last line of the
   stats file that parses and lists SAs. A trailing startup line (the
   previous incarnation died before its first heartbeat) or a line torn
   by a SIGKILL mid-append is passed over, so the cross-incarnation
   replay check never loses its old maximum. Read before this
   incarnation appends anything. *)
let read_prev_stats path =
  List.fold_left
    (fun prev (l : Heartbeat.line) -> if l.sas = [] then prev else l.sas)
    [] (Heartbeat.load path)

let append path s =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc s;
  close_out oc

let append_line path json = append path (Json.to_string json ^ "\n")

(* A previous incarnation killed mid-append leaves its last line without
   a newline; end that line, so this incarnation's first one parses. *)
let end_torn_line path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let torn = n > 0 && (seek_in ic (n - 1); input_char ic <> '\n') in
    close_in ic;
    if torn then append path "\n"
  end

(* Wall-clock SAVE-latency percentiles over every SA's saves. *)
let json_of_latencies sample =
  let n = Stats.Sample.count sample in
  let pct p = if n = 0 then 0. else Stats.Sample.percentile sample p in
  Json.Obj
    [
      ("count", Json.Int n);
      ("p50", Json.Float (pct 50.));
      ("p99", Json.Float (pct 99.));
      ("max", Json.Float (pct 100.));
    ]

(* Wire pressure: batch-fill percentiles on the receive side, flush
   counts and the tx-pool high-water mark on the send side, and the
   kernel datagrams that carried the frames (fewer than the frames when
   GSO or GRO coalesced runs; DESIGN.md §2f). [rx_no_sa] counts
   received frames no SA of this daemon owns: too short to carry an
   SPI, or an SPI outside the daemon's range (RFC 4303 §3.4.2's
   auditable "no valid SA" event). *)
let wire_json cfg sock ~rx_no_sa =
  let int f = Json.Int (f sock) in
  Json.Obj
    (match cfg.role with
    | Recv ->
      [
        ("rx_frames", int Transport_udp.rx_frames);
        ("rx_datagrams", int Transport_udp.rx_datagrams);
        ("rx_dropped", int Transport_udp.rx_dropped);
        ("rx_no_sa", Json.Int rx_no_sa);
        ("rx_batches", int Transport_udp.rx_batches);
        ("rx_batch_p50", Json.Int (Transport_udp.rx_batch_percentile sock 0.5));
        ("rx_batch_p99", Json.Int (Transport_udp.rx_batch_percentile sock 0.99));
        ("rx_batch_max", int Transport_udp.rx_batch_max);
        ("rcvbuf_effective", int Transport_udp.rcvbuf_effective);
      ]
    | Send ->
      [
        ("tx_frames", int Transport_udp.tx_frames);
        ("tx_datagrams", int Transport_udp.tx_datagrams);
        ("tx_errors", int Transport_udp.tx_errors);
        ("tx_flushes", int Transport_udp.tx_flushes);
        ("tx_queue_hwm", int Transport_udp.tx_queue_hwm);
        ("sndbuf_effective", int Transport_udp.sndbuf_effective);
      ])

(* Every heartbeat carries the writer's pid and an absolute wall-clock
   stamp: a supervisor reading the JSONL can tell incarnations apart by
   pid alone and measure restart-to-convergence times without sharing a
   clock with the daemon. [event] marks the terminal line a cleanly
   exiting daemon appends (["shutdown"], with the stop reason); its
   absence at exit is how a crash looks. *)
let append_heartbeat ?event path cfg ~elapsed_ns ~save_lat ~wire stats =
  append_line path
    (Json.Obj
       ((match event with
        | Some (name, reason) ->
          [ ("event", Json.String name); ("reason", Json.String reason) ]
        | None -> [])
       @ [
           ("pid", Json.Int (Unix.getpid ()));
           ("ts_ns", Json.Int (Int64.to_int (now_ns ())));
           ("elapsed_ns", Json.Int elapsed_ns);
           ("role", Json.String (role_name cfg.role));
           ("sas", Json.List (List.map Heartbeat.sa_to_json stats));
           ("save_latency_ns", Json.List [ json_of_latencies save_lat ]);
           ("wire", wire);
         ]))

(* The startup heartbeat carries what a post-mortem needs to interpret
   the run's wire numbers: the configured batch, the socket-buffer
   sizes the kernel actually granted (it clamps and rounds requests),
   and whether the socket sends GSO runs and reads GRO datagrams. *)
let append_startup path cfg sock =
  end_torn_line path;
  append_line path
    (Json.Obj
       [
         ("event", Json.String "startup");
         ("pid", Json.Int (Unix.getpid ()));
         ("ts_ns", Json.Int (Int64.to_int (now_ns ())));
         ("role", Json.String (role_name cfg.role));
         ("batch", Json.Int cfg.batch);
         ("rcvbuf_effective", Json.Int (Transport_udp.rcvbuf_effective sock));
         ("sndbuf_effective", Json.Int (Transport_udp.sndbuf_effective sock));
         ("gso", Json.Bool (Transport_udp.gso sock));
         ("gro", Json.Bool (Transport_udp.gro sock));
       ])

(* ------------------------------------------------------------------ *)

let derive_sa cfg i =
  let spi = Int32.of_int (cfg.spi_base + i) in
  Sa.create (Sa.derive_params ~window_width:cfg.window ~spi ~secret:cfg.secret ())

let key_of cfg i =
  Printf.sprintf "spi-%d-%s" (cfg.spi_base + i)
    (match cfg.role with Send -> "seq" | Recv -> "edge")

(* The persistence backend, shaped by the recovery discipline: per-SA
   file-per-key ([Per_sa], [Reestablish]) or one snapshot file holding
   every SA together ([Coalesced]). [Reestablish] additionally blinds
   the startup fetch — stored state is ignored, the SA establishes a
   fresh sequence space. A store-fault plan makes the backend misbehave
   deterministically. The snapshot's name ("recv-w0"/"send-w0") and the
   plan's PRNG stream (0) are part of the format: changing either would
   change what an existing store recovers, or which saves a seeded plan
   fails. *)
let open_store cfg =
  let faults =
    if Faults.is_none cfg.store_faults then None
    else
      Some
        (Faults.create ~spec:cfg.store_faults
           ~prng:(Prng.keyed ~seed:cfg.fault_seed ~stream:0))
  in
  match cfg.discipline with
  | Coalesced ->
    let name = role_name cfg.role ^ "-w0" in
    let snap = File_store.Snapshot.load ?faults ~dir:cfg.store_dir ~name () in
    ( File_store.Snapshot.store snap,
      fun ~key -> File_store.Snapshot.fetch snap ~key )
  | Per_sa | Reestablish ->
    let fs = File_store.create ~dir:cfg.store_dir in
    Option.iter (File_store.set_faults fs) faults;
    let fetch ~key =
      match cfg.discipline with
      | Reestablish -> None
      | _ -> File_store.fetch fs ~key
    in
    (File_store.store fs, fetch)

(* Final blocking SAVE on graceful shutdown: the freshest counter must
   be durable before the process exits. Saves are synchronous on the
   file store; under an injected fault plan a save may fail, so retry a
   few times and finally fall back to [preload] (which bypasses the
   plan — flushing state at shutdown is establishment-grade). *)
let final_save (st : Store.t) ~key ~value =
  let ok = ref false in
  let attempts = ref 0 in
  while (not !ok) && !attempts < Durable.retries do
    incr attempts;
    st.Store.save ~key ~value ~on_error:ignore ~on_complete:(fun () ->
        ok := true)
  done;
  if not !ok then st.Store.preload ~key ~value

(* The churn axis as a wire traffic shape, per SA: [Storm] is the
   on/off bursty source (4x the steady rate inside bursts, idle
   between, same long-run average), [Mixed] alternates shapes by SA
   index. PRNGs are keyed by SA index. *)
let traffic_of cfg i ~gap =
  let bursty () =
    let on_gap =
      Time.of_ns (Int64.of_float (Int64.to_float (Time.to_ns gap) /. 4.))
    in
    let burst = 32 in
    let off_ns =
      Int64.of_float
        (float_of_int burst
        *. (Int64.to_float (Time.to_ns gap) -. Int64.to_float (Time.to_ns on_gap))
        )
    in
    Resets_workload.Traffic.bursty ~on_gap ~off_duration:(Time.of_ns off_ns)
      ~burst_length:burst
      ~prng:(Prng.keyed ~seed:(cfg.impair_seed lxor 0x5747) ~stream:i)
  in
  match cfg.churn with
  | Steady -> Resets_workload.Traffic.constant ~gap
  | Storm -> bursty ()
  | Mixed ->
    if i mod 2 = 0 then Resets_workload.Traffic.constant ~gap else bursty ()

(* SA [i] on the daemon's engine: a sender writing to the daemon's
   socket through [send], or a receiver fed by its slice handler. A key
   already in the store is a previous incarnation's: the SA skips the
   establishment preload and performs the paper's wakeup — FETCH, leap
   2k, blocking SAVE, all synchronous against the file store — before
   the engine runs. *)
let make_sa cfg engine ~store ~fetch ~save_lat ~send i =
  let key = key_of cfg i in
  let prior = fetch ~key in
  let recovered = prior <> None in
  let metrics = Metrics.create () in
  let sa = derive_sa cfg i in
  let policy = K_policy.make (policy_mode cfg) in
  let store =
    timed_store ~sample:save_lat
      ~policy:(if cfg.adaptive then Some policy else None)
      store
  in
  let min_seq = ref 0 in
  let endpoint =
    match cfg.role with
    | Recv ->
      let receiver =
        Receiver.create
          ~name:(Printf.sprintf "q%d" (cfg.spi_base + i))
          ~preload_store:(not recovered) ~sa ~metrics
          ~persistence:
            (Some
               {
                 Receiver.store;
                 key;
                 policy;
                 robust = false;
                 wakeup_buffer = true;
                 retries = Durable.retries;
               })
          engine
      in
      Receiver.on_deliver receiver (fun ~seq ~payload:_ ->
          if !min_seq = 0 || seq < !min_seq then min_seq := seq);
      if recovered then begin
        Receiver.reset receiver;
        Receiver.wakeup receiver ()
      end;
      Rx receiver
    | Send ->
      (* An impaired wire is a Link in front of the socket, one per SA
         on the daemon's engine, its PRNG keyed by SA index. *)
      let send =
        if cfg.impair = Link.no_faults then send
        else begin
          let link =
            Link.create ~faults:cfg.impair
              ~prng:(Prng.keyed ~seed:cfg.impair_seed ~stream:i)
              ~latency:Time.zero engine
          in
          Link.set_deliver link send;
          Link.send link
        end
      in
      let gap = Time.of_ns (Int64.of_float (1e9 /. cfg.rate_pps)) in
      let sender =
        Sender.create
          ~name:(Printf.sprintf "p%d" (cfg.spi_base + i))
          ~preload_store:(not recovered) ~sa ~send
          ~traffic:(traffic_of cfg i ~gap)
          ~metrics
          ~persistence:
            (Some
               {
                 Sender.store;
                 key;
                 policy;
                 trigger = Sender.On_count;
                 retries = Durable.retries;
               })
          engine
      in
      if recovered then begin
        Sender.reset sender;
        Sender.wakeup sender ()
      end;
      Sender.start sender;
      Tx sender
  in
  { index = i; prior; policy; metrics; min_seq; endpoint }

(* ------------------------------------------------------------------ *)

(* Gate: did every SA converge after the restart, within the paper's
   bound, with no cross-incarnation replay? Returns violation strings
   (empty = pass). *)
let check_gate cfg ~prev stats =
  (* Adaptive daemons may legitimately run a larger K than configured;
     the convergence budget scales with the policy's worst case. *)
  let bound =
    Analysis.max_fresh_discards ~kq:(K_policy.bound_of_mode (policy_mode cfg))
  in
  List.concat_map
    (fun (s : Heartbeat.sa) ->
      let fail fmt = Printf.ksprintf (fun m -> [ m ]) fmt in
      let v1 =
        (* Re-establishment ignores stored state by design: the SA is
           expected to come up fresh, not to recover. *)
        if cfg.discipline = Reestablish then []
        else if not s.recovered then
          fail "spi %d: no stored edge found — previous incarnation left no state"
            s.spi
        else []
      and v2 =
        if s.delivered = 0 then
          fail "spi %d: no deliveries after recovery (did not converge)" s.spi
        else []
      and v3 =
        (* The bound covers fresh messages lost outright; rejections of
           wire-duplicated frames whose original was delivered are not
           losses (the wire may duplicate freely). *)
        if s.lost > bound then
          fail "spi %d: %d fresh messages lost > 2k = %d (convergence bound \
                broken)"
            s.spi s.lost bound
        else []
      and v4 =
        if s.dups > 0 then fail "spi %d: %d duplicate deliveries" s.spi s.dups
        else []
      and v5 =
        if s.bad_icv > 0 then
          fail "spi %d: %d integrity failures on a clean wire" s.spi s.bad_icv
        else []
      and v6 =
        match List.find_opt (fun (p : Heartbeat.sa) -> p.spi = s.spi) prev with
        | Some p when s.min_seq > 0 && s.min_seq <= p.max_seq ->
          fail
            "spi %d: delivered seq %d <= previous incarnation's max %d \
             (cross-incarnation replay)"
            s.spi s.min_seq p.max_seq
        | _ -> []
      in
      List.concat [ v1; v2; v3; v4; v5; v6 ])
    stats

let report cfg ~elapsed_s ~sock ~rx_no_sa ~gate stats =
  let total f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let delivered = total (fun (s : Heartbeat.sa) -> s.delivered)
  and sent = total (fun (s : Heartbeat.sa) -> s.sent) in
  let pps =
    match cfg.role with
    | Recv -> float_of_int delivered /. elapsed_s
    | Send -> float_of_int sent /. elapsed_s
  in
  Json.Obj
    [
      ("role", Json.String (role_name cfg.role));
      ("sas", Json.Int cfg.sas);
      ("k", Json.Int cfg.k);
      ("k_policy", Json.String (K_policy.describe (policy_mode cfg)));
      ( "discipline",
        Json.String
          (match cfg.discipline with
          | Per_sa -> "per-sa"
          | Coalesced -> "coalesced"
          | Reestablish -> "reestablish") );
      ( "churn",
        Json.String
          (match cfg.churn with
          | Steady -> "steady"
          | Storm -> "storm"
          | Mixed -> "mixed") );
      ("impair", Json.String (Link.faults_to_string cfg.impair));
      ("store_faults", Json.String (Faults.spec_to_string cfg.store_faults));
      ("elapsed_s", Json.Float elapsed_s);
      ("wire_rx", Json.Int (Transport_udp.rx_frames sock));
      ("wire_tx", Json.Int (Transport_udp.tx_frames sock));
      ("wire_tx_errors", Json.Int (Transport_udp.tx_errors sock));
      ("batch", Json.Int cfg.batch);
      ("wire", wire_json cfg sock ~rx_no_sa);
      ("sent", Json.Int sent);
      ("delivered", Json.Int delivered);
      ("pps", Json.Float pps);
      ("per_sa", Json.List (List.map Heartbeat.sa_to_json stats));
      ( "gate",
        Json.Obj
          [
            ("checked", Json.Bool cfg.expect_recovery);
            ("passed", Json.Bool (gate = []));
            ("violations", Json.List (List.map (fun v -> Json.String v) gate));
          ] );
    ]

let run cfg =
  if cfg.sas < 1 then invalid_arg "Daemon.run: sas must be >= 1";
  if cfg.batch < 1 || cfg.batch > Batch_io.max_batch then
    invalid_arg
      (Printf.sprintf "Daemon.run: batch must be in [1, %d]" Batch_io.max_batch);
  if cfg.heartbeat <= 0. then invalid_arg "Daemon.run: heartbeat must be > 0";
  (* only Sim_disk slows its writes by the factor; a file store's
     latency is the disk's own *)
  if cfg.store_faults.Faults.latency_factor <> 1. then
    invalid_arg
      "Daemon.run: store-fault latency must be 1: a file store does not slow \
       its writes";
  (match (cfg.role, cfg.bind, cfg.peer) with
  | Recv, None, _ -> invalid_arg "Daemon.run: Recv needs a bind address"
  | Send, _, None -> invalid_arg "Daemon.run: Send needs a peer address"
  | _ -> ());
  if not (Sys.file_exists cfg.store_dir) then Sys.mkdir cfg.store_dir 0o755;
  (* Graceful shutdown: a SIGTERM only raises this flag; the idle hook
     notices it and stops the engine, every SA makes a final blocking
     SAVE, and the terminal heartbeat is appended. The handler is
     opt-in — embedded runs (tests, the fleet supervisor's own process)
     must not have their signal dispositions stolen. *)
  let stop_requested = Atomic.make false in
  let prev_sigterm =
    if cfg.handle_signals then
      Some
        (Sys.signal Sys.sigterm
           (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true)))
    else None
  in
  let prev =
    match cfg.stats_path with
    | Some path when cfg.expect_recovery -> read_prev_stats path
    | Some _ | None -> []
  in
  (* The receive role binds; the send role stages frames for its peer,
     flushed at every engine-tick boundary so a batch never outlives a
     tick. *)
  let sock =
    Transport_udp.create
      ?bind:(match cfg.role with Recv -> cfg.bind | Send -> None)
      ?peer:(match cfg.role with Send -> cfg.peer | Recv -> None)
      ~batch:cfg.batch ?rcvbuf:cfg.rcvbuf ?sndbuf:cfg.sndbuf ()
  in
  let engine = Engine.create () in
  let clock = Clock.of_ns_source now_ns in
  let store, fetch = open_store cfg in
  let save_lat = Stats.Sample.create () in
  (* A frame the kernel refuses is loss, already counted in the
     socket's [tx_errors]. *)
  let send pkt = ignore (Transport_udp.send_frame sock pkt.Packet.wire : bool) in
  let sas = Array.init cfg.sas (make_sa cfg engine ~store ~fetch ~save_lat ~send) in
  let rx_no_sa = ref 0 in
  let rows () = List.map (stat_of cfg) (Array.to_list sas) in
  let heartbeat ?event () =
    Option.iter
      (fun path ->
        append_heartbeat ?event path cfg
          ~elapsed_ns:(Int64.to_int (Time.to_ns (Clock.elapsed clock)))
          ~save_lat ~wire:(wire_json cfg sock ~rx_no_sa:!rx_no_sa) (rows ()))
      cfg.stats_path
  in
  Option.iter
    (fun path ->
      append_startup path cfg sock;
      let period = Time.of_sec cfg.heartbeat in
      let rec beat () =
        heartbeat ();
        ignore (Engine.schedule_after engine ~after:period beat)
      in
      ignore (Engine.schedule_after engine ~after:period beat))
    cfg.stats_path;
  (* Each received frame's SPI is read in place off the rx arena and
     range-checked, and the frame is decoded where it lies: the
     receiver copies it only to keep it past the call (in its wakeup
     or catch-up buffer). A frame too short to carry an SPI has none
     (-1). *)
  if cfg.role = Recv then
    Transport_udp.set_slice_handler sock (fun slice ->
        let i =
          match Esp.spi_of_slice slice with
          | Some spi -> Int32.to_int spi - cfg.spi_base
          | None -> -1
        in
        if i < 0 || i >= cfg.sas then incr rx_no_sa
        else
          match sas.(i).endpoint with
          | Rx r -> Receiver.on_frame r slice
          | Tx _ -> ());
  (* Between due events: wait until the next one, at most 20 ms so a
     stop request is seen promptly — on the socket when receiving. *)
  let idle ~due =
    if Atomic.get stop_requested then Engine.stop engine
    else begin
      let wait =
        match due with
        | None -> 0.02
        | Some d ->
          Float.max 0.
            (Float.min 0.02 (Time.to_sec d -. Time.to_sec (Clock.elapsed clock)))
      in
      match cfg.role with
      | Recv ->
        if
          no_eintr ~default:false (fun () ->
              Transport_udp.wait_readable sock ~timeout:wait)
        then ignore (Transport_udp.drain sock : int)
      | Send ->
        if wait > 0. then no_eintr ~default:() (fun () -> Unix.sleepf wait)
    end
  in
  let tick () = if cfg.role = Send then ignore (Transport_udp.flush sock : int) in
  ignore
    (Engine.run_clocked ~clock ~idle ~tick ~until:(Time.of_sec cfg.duration)
       engine);
  (* Frames that raced shutdown still count; staged sends still go. *)
  (match cfg.role with
  | Recv -> ignore (Transport_udp.drain sock : int)
  | Send -> ignore (Transport_udp.flush sock : int));
  (* Graceful (SIGTERM) stop: make every SA's freshest counter durable
     before exiting, so the next incarnation recovers from it instead of
     the last periodic SAVE — and a sender never reuses a number. *)
  let graceful = Atomic.get stop_requested in
  if graceful then
    Array.iter
      (fun sa ->
        final_save store ~key:(key_of cfg sa.index)
          ~value:
            (match sa.endpoint with
            | Rx r -> Receiver.right_edge r
            | Tx s -> Sender.next_seq s))
      sas;
  Option.iter (Sys.set_signal Sys.sigterm) prev_sigterm;
  let elapsed_s = Time.to_sec (Clock.elapsed clock) in
  let stats = rows () in
  (* Terminal heartbeat: a cleanly exiting daemon always leaves one,
     stamped with why it stopped. Its absence marks a crash. *)
  heartbeat ~event:("shutdown", if graceful then "sigterm" else "duration") ();
  let gate =
    if cfg.expect_recovery && cfg.role = Recv then check_gate cfg ~prev stats
    else []
  in
  let rep = report cfg ~elapsed_s ~sock ~rx_no_sa:!rx_no_sa ~gate stats in
  Transport_udp.close sock;
  Option.iter (fun path -> Json.write_file path rep) cfg.json_path;
  ((if gate = [] then 0 else 2), rep)
