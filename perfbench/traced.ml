(* The traced run: per-layer metrics.

   The workload has already run untraced in this invocation (its
   counters and end-to-end figures are in the result). Spans live only
   in this file: where a workload enters the program through a separate
   process (the daemons) or one call (Multi_sa.run, Explorer.explore),
   a single-domain replica calls the same public functions on the
   workload's inputs, wrapped in spans. Each replica also runs once with
   recording off, which gives the tracing overhead. The per-op sum of
   the replica's self times is set against the untraced end-to-end
   figure and the remainder is reported as it is; nothing is scaled to
   make the ledger close. *)

open Resets_util
open Resets_sim
open Resets_persist
open Resets_ipsec
open Resets_core
open Resets_net
open Common

(* ------------------------------------------------------------------ *)
(* Per-layer catalogue: every metric a traced run reports, the
   workloads that measure it, and BENCHMARK.json's per_layer list.     *)

let wire = [ "wire-steady" ]
let inproc = [ "sim-scale"; "apn-explore" ]
let all = wire @ inproc

let catalogue =
  [
    ("net.rx_main_us_per_frame", "us", wire);
    ("net.rx_frames_per_batch", "frames", wire);
    ("net.tx_frames_per_flush", "frames", wire);
    ("net.kernel_drops", "count", wire);
    ("net.drain_ns_per_frame", "ns", wire);
    ("net.flush_ns_per_frame", "ns", wire);
    ("core.recv_worker_us_per_frame_user", "us", wire);
    ("core.recv_worker_us_per_frame_sys", "us", wire);
    ("core.send_worker_us_per_frame_user", "us", wire);
    ("core.send_worker_us_per_frame_sys", "us", wire);
    ("core.sender_behind_pct", "%", wire);
    ("core.handoff_ns", "ns", wire);
    ("core.on_packet_self_ns", "ns", wire);
    ("ipsec.encap_into_ns", "ns", wire);
    ("ipsec.decap_slice_ns", "ns", wire);
    ("ipsec.spi_peek_ns", "ns", wire);
    ("ipsec.encap_string_ns", "ns", [ "sim-scale" ]);
    ("ipsec.decap_string_ns", "ns", [ "sim-scale" ]);
    ("ipsec.window_admit_ns", "ns", [ "sim-scale" ]);
    ("ipsec.replays_rejected", "count", [ "sim-scale" ]);
    ("crypto.hmac_256B_ns", "ns", wire @ [ "sim-scale" ]);
    ("crypto.chacha20_256B_ns", "ns", wire @ [ "sim-scale" ]);
    ("persist.recv_save_p50_us", "us", wire);
    ("persist.recv_save_p99_us", "us", wire);
    ("persist.send_save_p50_us", "us", wire);
    ("persist.saves_per_kframe", "count", wire);
    ("persist.file_save_ns", "ns", wire);
    ("persist.snapshot_save_ns", "ns", [ "sim-scale" ]);
    ("persist.disk_writes", "count", [ "sim-scale" ]);
    ("sim.events", "count", [ "sim-scale" ]);
    ("sim.events_per_s", "1/s", [ "sim-scale" ]);
    ("sim.engine_step_ns", "ns", [ "sim-scale" ]);
    ("attack.replays_injected", "count", [ "sim-scale" ]);
    ("apn.states", "count", [ "apn-explore" ]);
    ("apn.transitions", "count", [ "apn-explore" ]);
    ("apn.distinct_hash_ratio", "ratio", [ "apn-explore" ]);
    ("apn.max_hash_chain", "count", [ "apn-explore" ]);
    ("apn.snapshot_ns", "ns", [ "apn-explore" ]);
    ("apn.snapshot_hash_ns", "ns", [ "apn-explore" ]);
    ("apn.snapshot_equal_ns", "ns", [ "apn-explore" ]);
    ("gc.alloc_words_per_op", "words", all);
    ("gc.minor_collections", "count", inproc);
    ("gc.major_collections", "count", inproc);
    ("gc.promoted_words_per_op", "words", inproc);
    ("gc.top_heap_mb", "MB", inproc);
    ("ledger.explained_ns_per_op", "ns", all);
    ("ledger.untraced_ns_per_op", "ns", all);
    ("ledger.remainder_pct", "%", all);
    ("ledger.trace_overhead_pct", "%", all);
  ]

(* Per-layer metrics of the restart path. They need a workload that
   kills and respawns the receiver, which this benchmark does not run
   (CHANGES.md says why); they are listed so that the traced run can
   say why they are missing. *)
let not_measured =
  [
    "core.recover_ms"; "core.converge_ms"; "core.spawn_to_startup_ms";
    "core.startup_to_ready_ms"; "core.lost_max_over_2k"; "ipsec.stale_rejected";
    "persist.recovery_saves"; "persist.snapshot_load_ns";
  ]

type t = {
  layer : metric list;  (** the catalogue, in order: BENCHMARK.json's per_layer *)
  env : (string * Json.t) list;
  lines : string list;  (** ledger and availability notes *)
}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let frame_id spi seq = (spi lsl 32) lor seq

(* A store wrapped the way the daemon wraps its own (Daemon.timed_store),
   recording each save as a child span of the current frame. Saves on
   the file store complete before [save] returns. *)
let traced_store sp name (st : Store.t) =
  {
    st with
    Store.save =
      (fun ~key ~value ~on_error ~on_complete ->
        let i = Spans.enter sp name ~id:(Spans.current_id sp) in
        st.Store.save ~key ~value ~on_error ~on_complete;
        Spans.leave sp i);
  }

let payload seq = Printf.sprintf "message-%d" seq
let mean_ns sp name = Spans.mean_self_ns sp name

let per_op sp name ~ops = iratio (Spans.self_ns sp name) ops

(* Mean ns of [f] over [n] calls, itself recorded as one span. *)
let timed_calls sp name n f =
  let i = Spans.enter sp name ~id:0 in
  let t0 = now_ns () in
  for _ = 1 to n do
    f ()
  done;
  let dt = now_ns () - t0 in
  Spans.leave sp i;
  float_of_int dt /. float_of_int n

(* Run a replica [rounds] times with recording off and on, alternating,
   and return the fastest round's wall ns of each side (the least
   disturbed by the machine and the disk) with the last traced recorder
   and result. [f] receives the recorder and the round. *)
let alternate ~rounds ~capacity f =
  let off = ref [] and on = ref [] and last = ref None in
  for round = 1 to rounds do
    Gc.full_major ();
    let ns, _ = f (Spans.create ~enabled:false ()) round in
    off := ns :: !off;
    Gc.full_major ();
    let sp = Spans.create ~capacity ~enabled:true () in
    let ns, v = f sp round in
    on := ns :: !on;
    last := Some (sp, v)
  done;
  match !last with
  | Some (sp, v) -> (List.fold_left min infinity !off, List.fold_left min infinity !on, sp, v)
  | None -> invalid_arg "alternate: rounds must be positive"

let crypto_costs sp =
  let key = String.make 32 'k' in
  let buf = Bytes.make 256 'x' and tag = Bytes.create 32 in
  let h = Resets_crypto.Hmac.state ~key in
  let c = Resets_crypto.Chacha20.state ~key in
  let nonce = Bytes.make 12 'n' in
  let hmac =
    timed_calls sp "crypto.hmac_256B" 20_000 (fun () ->
        Resets_crypto.Hmac.start h;
        Resets_crypto.Hmac.add_bytes h buf ~off:0 ~len:256;
        Resets_crypto.Hmac.finish_into h ~bytes:32 ~dst:tag ~dst_off:0)
  in
  let chacha =
    timed_calls sp "crypto.chacha20_256B" 20_000 (fun () ->
        Resets_crypto.Chacha20.crypt_into c ~nonce buf ~off:0 ~len:256)
  in
  [ ("crypto.hmac_256B_ns", hmac); ("crypto.chacha20_256B_ns", chacha) ]

(* ------------------------------------------------------------------ *)
(* Wire datapath replica: Esp.encap_into -> Transport_udp.send_slice /
   flush -> drain -> Esp.spi_of_slice -> Slice.to_string + Packet.fresh
   -> Receiver.on_packet, with each side's store wrapped so SAVEs show
   as child spans. One domain, one engine, the daemon's SA derivation
   and receiver persistence settings.                                  *)

let wire_replica sp ~frames ~flush_every ~dir ~spi_base ~secret ~round =
  let dir =
    Filename.concat dir
      (Printf.sprintf "replica-%d-%s" round (if Spans.(sp.enabled) then "traced" else "plain"))
  in
  Sys.mkdir dir 0o755;
  let sas = Wire_pair.sas and k = Wire_pair.k in
  let port = Wire_pair.free_port () in
  let rx =
    Transport_udp.create ~bind:(Transport_udp.Udp ("127.0.0.1", port)) ~rcvbuf:Wire_pair.rcvbuf ()
  in
  let tx = Transport_udp.create ~peer:(Transport_udp.Udp ("127.0.0.1", port)) () in
  let engine = Engine.create () in
  let store role =
    let d = Filename.concat dir role in
    Sys.mkdir d 0o755;
    traced_store sp "persist.file_save" (File_store.store (File_store.create ~dir:d))
  in
  let send_store = store "send" and recv_store = store "recv" in
  let derive i =
    Sa.create
      (Sa.derive_params ~window_width:64 ~spi:(Int32.of_int (spi_base + i)) ~secret ())
  in
  let senders = Array.init sas derive in
  let seqs = Array.make sas 0 in
  let receivers = Hashtbl.create sas in
  let metrics = Array.init sas (fun _ -> Metrics.create ()) in
  for i = 0 to sas - 1 do
    let key = Printf.sprintf "spi-%d-edge" (spi_base + i) in
    let r =
      Receiver.create ~sa:(derive i) ~metrics:metrics.(i)
        ~persistence:
          (Some
             {
               Receiver.store = recv_store;
               key;
               policy = K_policy.make (K_policy.static k);
               robust = false;
               wakeup_buffer = true;
               retries = 3;
             })
        engine
    in
    Hashtbl.replace receivers (spi_base + i) r
  done;
  (* on_packet decaps inside the program, where no span can reach; the
     same decap is timed alone, on a separate SA, right after it *)
  let decap_sas = Array.init sas derive in
  let pending = ref [] in
  Transport_udp.set_slice_handler rx (fun slice ->
      let spi, seq =
        Spans.span sp "ipsec.spi_peek" ~id:(Spans.current_id sp) (fun () ->
            (Esp.spi_of_slice slice, Esp.seq_of_slice slice))
      in
      match (spi, seq) with
      | Some spi, Some seq ->
        let spi = Int32.to_int spi in
        let id = frame_id spi seq in
        let s = Spans.span sp "core.handoff" ~id (fun () -> Slice.to_string slice) in
        pending := (spi, seq, s) :: !pending
      | _ -> ());
  let buf = Bytes.create Resets_net_stubs.Batch_io.frame_size in
  let batch = ref 0 in
  let deliver () =
    List.iter
      (fun (spi, seq, frame) ->
        let id = frame_id spi seq in
        let pkt = Spans.span sp "core.handoff" ~id (fun () -> Packet.fresh frame) in
        let r = Hashtbl.find receivers spi in
        Spans.span sp "core.on_packet" ~id (fun () -> Receiver.on_packet r pkt);
        let i = spi - spi_base in
        Spans.span sp "ipsec.decap_slice" ~id (fun () ->
            ignore (Esp.decap_slice ~sa:decap_sas.(i).Sa.params frame)))
      (List.rev !pending);
    pending := []
  in
  let exchange () =
    incr batch;
    let id = - !batch in
    Spans.span sp "net.flush" ~id (fun () -> ignore (Transport_udp.flush tx));
    Spans.span sp "net.drain" ~id (fun () -> ignore (Transport_udp.drain rx));
    deliver ()
  in
  let t0 = now_ns () in
  for f = 0 to frames - 1 do
    let i = f mod sas in
    let seq = seqs.(i) + 1 in
    seqs.(i) <- seq;
    let spi = spi_base + i in
    let id = frame_id spi seq in
    let len =
      Spans.span sp "ipsec.encap_into" ~id (fun () ->
          Esp.encap_into ~sa:senders.(i).Sa.params ~seq ~payload:(payload seq) buf ~off:0)
    in
    Spans.span sp "net.send_slice" ~id (fun () ->
        ignore (Transport_udp.send_slice tx (Slice.make buf ~off:0 ~len)));
    if seq mod k = 0 then
      Spans.span sp "core.send_save" ~id (fun () ->
          send_store.Store.save ~key:(Printf.sprintf "spi-%d-seq" spi) ~value:seq
            ~on_error:ignore ~on_complete:ignore);
    if (f + 1) mod flush_every = 0 then exchange ()
  done;
  exchange ();
  let delivered () =
    sum_i (Array.to_list (Array.map (fun (m : Metrics.t) -> m.Metrics.delivered) metrics))
  in
  let deadline = wall () +. 2. in
  while delivered () < frames && wall () < deadline do
    if Transport_udp.wait_readable rx ~timeout:0.01 then exchange ()
  done;
  let elapsed = now_ns () - t0 in
  Transport_udp.close rx;
  Transport_udp.close tx;
  (float_of_int elapsed /. float_of_int frames, delivered ())

let flush_every_of (r : result) name =
  let v = match List.find_opt (fun m -> m.name = name) r.layer with Some m -> m.value | None -> 1. in
  max 1 (min Resets_net_stubs.Batch_io.default_batch (int_of_float (Float.round v)))

let wire_layers p (r : result) =
  let spi_base, secret = Wire_pair.inputs p in
  let frames = 60_000 in
  let flush_every = flush_every_of r "net.tx_frames_per_flush" in
  let untraced_ns, traced_ns, sp, delivered =
    alternate ~rounds:5 ~capacity:(1 lsl 20) (fun sp round ->
        wire_replica sp ~frames ~flush_every ~dir:p.dir ~spi_base ~secret ~round)
  in
  let crypto = crypto_costs (Spans.create ~enabled:true ()) in
  let f name = per_op sp name ~ops:frames in
  (* on_packet's span holds its decap, which is timed separately: the
     ledger charges that time to ipsec and the rest to core *)
  let decap = mean_ns sp "ipsec.decap_slice" in
  let on_packet_self = f "core.on_packet" -. decap in
  (* stages that run on a processor; SAVE spans are mostly fsync waits,
     which the daemons' CPU figure does not count, so they are listed
     beside the sum rather than in it *)
  let stages =
    List.map
      (fun n -> (n, f n))
      [ "ipsec.encap_into"; "net.send_slice"; "core.send_save"; "net.flush"; "net.drain";
        "ipsec.spi_peek"; "core.handoff" ]
    @ [ ("core.on_packet (less decap)", on_packet_self); ("ipsec.decap_slice (in on_packet)", decap) ]
  in
  let explained = sum_f (List.map snd stages) in
  let untraced_e2e = find_metric "cpu_us_per_op" r.metrics *. 1e3 in
  let layer =
    [
      ("net.drain_ns_per_frame", f "net.drain");
      ("net.flush_ns_per_frame", f "net.flush");
      ("core.handoff_ns", f "core.handoff");
      ("core.on_packet_self_ns", on_packet_self);
      ("ipsec.encap_into_ns", mean_ns sp "ipsec.encap_into");
      ("ipsec.decap_slice_ns", decap);
      ("ipsec.spi_peek_ns", mean_ns sp "ipsec.spi_peek");
      ("persist.file_save_ns", mean_ns sp "persist.file_save");
      ("ledger.explained_ns_per_op", explained);
      ("ledger.untraced_ns_per_op", untraced_e2e);
      ("ledger.remainder_pct", 100. *. (1. -. ratio explained untraced_e2e));
      ("ledger.trace_overhead_pct", 100. *. (ratio traced_ns untraced_ns -. 1.));
    ]
    @ crypto
  in
  let ledger =
    [
      Printf.sprintf
        "ledger (%s): replica self times per frame, wall ns; untraced cpu_us_per_op = %.0f ns/frame (daemon CPU, both processes)"
        p.workload untraced_e2e;
    ]
    @ List.map
        (fun (n, v) -> Printf.sprintf "  %-34s %10.0f ns/frame" n v)
        (List.filter (fun (_, v) -> v > 0.) stages)
    @ [
        Printf.sprintf "  %-34s %10.0f ns/frame" "sum" explained;
        Printf.sprintf "  %-34s %10.0f ns/frame (%.1f%% of the untraced figure)" "remainder"
          (untraced_e2e -. explained)
          (100. *. (1. -. ratio explained untraced_e2e));
        Printf.sprintf "  %-34s %10.0f ns/frame wall, not in the sum" "persist.file_save"
          (f "persist.file_save");
        Printf.sprintf
          "  replica wall per frame, fastest round: %.0f ns untraced, %.0f ns traced (overhead %.1f%%); %d/%d frames delivered"
          untraced_ns traced_ns
          (100. *. (ratio traced_ns untraced_ns -. 1.))
          delivered frames;
        "  SAVE spans are wall time, mostly fsync waits, which the CPU figure does not count";
      ]
  in
  Spans.write sp p.spans;
  (layer, ledger)

(* ------------------------------------------------------------------ *)
(* Simulator replica: the string-face ESP codec, window admits on a
   flat arena holding every SA's window, engine steps at a pending-timer
   count of two per SA, and one coalesced Sim_disk snapshot of every
   key; each weighted by the counts the untraced run reported.         *)

let sim_replica sp ~seed =
  let n = Sim_scale.sa_count in
  let g = Prng.keyed ~seed ~stream:4 in
  let t0 = now_ns () in
  (* codec over 64 SAs: key derivation for 4096 would dominate *)
  let codec_sas = 64 in
  let sas =
    Array.init codec_sas (fun i ->
        Sa.create
          (Sa.derive_params ~window_width:64 ~spi:(Int32.of_int (0x4000 + i))
             ~secret:(Printf.sprintf "multi-sa-%d" i) ()))
  in
  for s = 1 to 20_000 do
    let i = s mod codec_sas in
    let seq = (s / codec_sas) + 1 in
    let id = frame_id (0x4000 + i) seq in
    let params = sas.(i).Sa.params in
    let pkt = Spans.span sp "ipsec.encap_string" ~id (fun () -> Esp.encap ~sa:params ~seq ~payload:(payload seq)) in
    ignore (Spans.span sp "ipsec.decap_string" ~id (fun () -> Esp.decap ~sa:params pkt))
  done;
  let arena = Sadb_flat.create ~capacity:(2 * n) ~w:64 () in
  let windows = Array.init n (fun _ -> Replay_window.create (Replay_window.Flat_impl arena) ~w:64) in
  let edges = Array.make n 0 in
  let admit_c = Spans.counter sp "ipsec.window_admit" in
  for _ = 1 to 200_000 do
    let i = Prng.int g n in
    edges.(i) <- edges.(i) + 1;
    let w = windows.(i) in
    let seq = edges.(i) in
    ignore (Spans.tally sp admit_c (fun () -> Replay_window.admit w seq))
  done;
  (* engine at two pending timers per SA, each event rescheduling itself *)
  let engine = Engine.create () in
  let gap_ns = 400_000 in
  let rec tick () =
    ignore (Engine.schedule_after engine ~after:(Time.of_ns (Int64.of_int (1 + Prng.int g gap_ns))) tick)
  in
  for _ = 1 to 2 * n do
    tick ()
  done;
  for step = 1 to 200_000 do
    ignore (Spans.span sp "sim.engine_step" ~id:step (fun () -> Engine.step engine))
  done;
  let entries = Array.init n (fun i -> (Printf.sprintf "sa-%d" i, i)) in
  for s = 1 to 20 do
    let e = Engine.create () in
    let disk = Sim_disk.create ~latency:(Time.of_us 100) e in
    Spans.span sp "persist.snapshot_save" ~id:s (fun () ->
        Sim_disk.save_snapshot disk ~entries ~on_complete:ignore;
        ignore (Engine.run e))
  done;
  (float_of_int (now_ns () - t0), ())

let env_int (r : result) name =
  match List.assoc_opt name r.env with Some (Json.Int i) -> float_of_int i | _ -> 0.

let ledger_lines ~workload ~unit_label ~e2e ~explained stages ~untraced ~traced =
  [ Printf.sprintf "ledger (%s): replica self time per %s, ns; untraced end-to-end = %.0f ns per %s"
      workload unit_label e2e unit_label ]
  @ List.map (fun (n, v) -> Printf.sprintf "  %-24s %12.1f ns/%s" n v unit_label) stages
  @ [
      Printf.sprintf "  %-24s %12.1f ns/%s" "sum" explained unit_label;
      Printf.sprintf "  %-24s %12.1f ns/%s (%.1f%% of the untraced figure)" "remainder"
        (e2e -. explained) unit_label (100. *. (1. -. ratio explained e2e));
      Printf.sprintf "  replica wall, fastest round: %.3f s untraced, %.3f s traced (overhead %.1f%%)"
        (untraced /. 1e9) (traced /. 1e9) (100. *. (ratio traced untraced -. 1.));
    ]

let sim_layers p (r : result) =
  let untraced, traced, sp, () =
    alternate ~rounds:5 ~capacity:(1 lsl 19) (fun sp _ -> sim_replica sp ~seed:p.seed)
  in
  let crypto = crypto_costs (Spans.create ~enabled:true ()) in
  let delivered = env_int r "delivered" in
  let events = find_metric "sim.events" r.layer
  and injected = find_metric "attack.replays_injected" r.layer
  and writes = find_metric "persist.disk_writes" r.layer in
  let m = mean_ns sp in
  (* weights from the untraced run's own counts: per delivered packet
     one encap and one decap on the string face and one admit; per
     injected replay one admit (the window rejects it before the
     codec); per event one engine step; per disk write one snapshot *)
  let stages =
    [
      ("ipsec.encap_string", m "ipsec.encap_string" *. delivered);
      ("ipsec.decap_string", m "ipsec.decap_string" *. delivered);
      ("ipsec.window_admit", m "ipsec.window_admit" *. (delivered +. injected));
      ("sim.engine_step", m "sim.engine_step" *. events);
      ("persist.snapshot_save", m "persist.snapshot_save" *. writes);
    ]
    |> List.map (fun (n, total) -> (n, ratio total delivered))
  in
  let explained = sum_f (List.map snd stages) in
  let e2e = 1e9 /. find_metric "throughput" r.metrics in
  let layer =
    [
      ("ipsec.encap_string_ns", m "ipsec.encap_string");
      ("ipsec.decap_string_ns", m "ipsec.decap_string");
      ("ipsec.window_admit_ns", m "ipsec.window_admit");
      ("sim.engine_step_ns", m "sim.engine_step");
      ("persist.snapshot_save_ns", m "persist.snapshot_save");
      ("ledger.explained_ns_per_op", explained);
      ("ledger.untraced_ns_per_op", e2e);
      ("ledger.remainder_pct", 100. *. (1. -. ratio explained e2e));
      ("ledger.trace_overhead_pct", 100. *. (ratio traced untraced -. 1.));
    ]
    @ crypto
  in
  Spans.write sp p.spans;
  ( layer,
    ledger_lines ~workload:p.workload ~unit_label:"packet" ~e2e ~explained stages ~untraced
      ~traced
    @ [
        Printf.sprintf
          "  weights: %.0f delivered, %.0f replays injected, %.0f events, %.0f disk writes; engine stepped at %d pending timers"
          delivered injected events writes (2 * Sim_scale.sa_count);
      ] )

(* ------------------------------------------------------------------ *)
(* Explorer replica: Explorer.explore's BFS, step for step, over the
   same models, with each System call in a span and the visited set's
   hash and equality probes tallied.                                   *)

let current = ref (Spans.create ~enabled:false ())
let hash_c = ref (Spans.counter !current "apn.snapshot_hash")
let equal_c = ref (Spans.counter !current "apn.snapshot_equal")

module Table = Hashtbl.Make (struct
  type t = Resets_apn.System.snapshot

  let equal a b = Spans.tally !current !equal_c (fun () -> Resets_apn.System.snapshot_equal a b)
  let hash s = Spans.tally !current !hash_c (fun () -> Resets_apn.System.snapshot_hash s)
end)

type bfs = { states : int; transitions : int; distinct : int; max_chain : int }

let bfs sp (row : Apn_explore.row) =
  let open Resets_apn in
  current := sp;
  hash_c := Spans.counter sp "apn.snapshot_hash";
  equal_c := Spans.counter sp "apn.snapshot_equal";
  let system = row.build () in
  let initial = System.snapshot system in
  let visited = Table.create 4096 in
  Table.replace visited initial ();
  let frontier = Queue.create () in
  Queue.add initial frontier;
  let states = ref 1 and transitions = ref 0 and stop = ref (not (row.invariant system)) in
  let expanded = ref 0 in
  while (not !stop) && not (Queue.is_empty frontier) do
    let snap = Queue.pop frontier in
    incr expanded;
    let id = !expanded in
    Spans.span sp "apn.restore" ~id (fun () -> System.restore system snap);
    let steps = Spans.span sp "apn.enabled_steps" ~id (fun () -> System.enabled_steps system) in
    List.iter
      (fun step ->
        if not !stop then begin
          Spans.span sp "apn.restore" ~id (fun () -> System.restore system snap);
          Spans.span sp "apn.execute" ~id (fun () -> System.execute system step);
          incr transitions;
          let next = Spans.span sp "apn.snapshot" ~id (fun () -> System.snapshot system) in
          let fresh =
            Spans.span sp "apn.visited" ~id (fun () ->
                if Table.mem visited next then false
                else begin
                  ignore (System.step_label step);
                  Table.replace visited next ();
                  true
                end)
          in
          if fresh then begin
            incr states;
            if not (Spans.span sp "apn.invariant" ~id (fun () -> row.invariant system)) then
              stop := true
            else if !states >= Apn_explore.max_states then stop := true
            else Queue.add next frontier
          end
        end)
      steps
  done;
  let chains = Hashtbl.create 64 in
  Table.iter
    (fun s () ->
      let h = System.snapshot_hash s in
      Hashtbl.replace chains h (1 + Option.value ~default:0 (Hashtbl.find_opt chains h)))
    visited;
  {
    states = !states;
    transitions = !transitions;
    distinct = Hashtbl.length chains;
    max_chain = Hashtbl.fold (fun _ c acc -> max c acc) chains 0;
  }

let apn_replica sp p =
  let t0 = now_ns () in
  let rs = List.map (bfs sp) (Apn_explore.ordered p) in
  (float_of_int (now_ns () - t0), rs)

let apn_names =
  [ "apn.restore"; "apn.enabled_steps"; "apn.execute"; "apn.snapshot"; "apn.visited";
    "apn.snapshot_hash"; "apn.snapshot_equal"; "apn.invariant" ]

let apn_layers p (r : result) =
  let untraced, traced, sp, rs =
    alternate ~rounds:2 ~capacity:(1 lsl 19) (fun sp _ -> apn_replica sp p)
  in
  let states = sum_i (List.map (fun b -> b.states) rs) in
  let stages = List.map (fun n -> (n, per_op sp n ~ops:states)) apn_names in
  let explained = sum_f (List.map snd stages) in
  let e2e = 1e9 /. find_metric "throughput" r.metrics in
  let layer =
    [
      ("apn.states", float_of_int states);
      ("apn.transitions", float_of_int (sum_i (List.map (fun b -> b.transitions) rs)));
      ("apn.distinct_hash_ratio", iratio (sum_i (List.map (fun b -> b.distinct) rs)) states);
      ("apn.max_hash_chain", float_of_int (List.fold_left (fun a b -> max a b.max_chain) 0 rs));
      ("apn.snapshot_ns", mean_ns sp "apn.snapshot");
      ("apn.snapshot_hash_ns", mean_ns sp "apn.snapshot_hash");
      ("apn.snapshot_equal_ns", mean_ns sp "apn.snapshot_equal");
      ("ledger.explained_ns_per_op", explained);
      ("ledger.untraced_ns_per_op", e2e);
      ("ledger.remainder_pct", 100. *. (1. -. ratio explained e2e));
      ("ledger.trace_overhead_pct", 100. *. (ratio traced untraced -. 1.));
    ]
  in
  Spans.write sp p.spans;
  (layer, ledger_lines ~workload:p.workload ~unit_label:"state" ~e2e ~explained stages ~untraced ~traced)

(* ------------------------------------------------------------------ *)

let run p (r : result) =
  let own, lines =
    match p.workload with
    | "wire-steady" -> wire_layers p r
    | "sim-scale" -> sim_layers p r
    | _ -> apn_layers p r
  in
  let measured = List.map (fun m -> (m.name, m.value)) r.layer @ own in
  let layer, unavailable =
    List.fold_right
      (fun (name, unit_, where) (ms, un) ->
        match List.assoc_opt name measured with
        | Some v -> (metric name unit_ v :: ms, un)
        | None ->
          ( metric name unit_ 0. :: ms,
            Printf.sprintf "  %s: not exercised by %s (measured on %s)" name p.workload
              (String.concat ", " where)
            :: un ))
      catalogue ([], [])
  in
  {
    layer;
    env = [ ("spans", Json.String p.spans) ];
    lines =
      lines
      @ [
          Printf.sprintf "span durations are net of one clock read (%d ns)"
            (Lazy.force Spans.clock_ns);
        ]
      @ (if unavailable = [] then []
         else "unavailable here, reported as 0:" :: unavailable)
      @ [
          "not measured: no workload restarts a daemon: "
          ^ String.concat ", " not_measured;
        ];
  }

let print t =
  Printf.printf "per-layer (traced run):\n";
  List.iter (fun m -> Printf.printf "  %-40s %16.6g %s\n" m.name m.value m.unit_) t.layer;
  List.iter print_endline t.lines
