open Resets_util
open Resets_sim
open Resets_persist
open Resets_ipsec
open Resets_workload

type config = {
  k : int;
  save_latency : Time.t;
  message_gap : Time.t;
  link_latency : Time.t;
  dpd : Dpd.config;
  keep_alive : Time.t;
  window : int;
  framing : Sa.framing;
}

let default_config =
  {
    k = 25;
    save_latency = Time.of_us 100;
    message_gap = Time.of_us 50;
    link_latency = Time.of_us 20;
    dpd = Dpd.default_config;
    keep_alive = Time.of_ms 50;
    window = 64;
    framing = Sa.Seq64;
  }

type outcome = {
  death_detected_at : Time.t option;
  sa_survived : bool;
  announce_accepted : bool;
  replayed_announce_rejected : bool;
  convergence_time : Time.t option;
  deliveries_after_recovery : int;
}

let run ?(seed = 7) ?(replay_announce = false) ~reset_at ~downtime ~horizon config =
  let engine = Engine.create () in
  let prng = Prng.create seed in
  let metrics = Metrics.create () in
  (* A → B security association (the direction under study), composed
     from the shared endpoint layer: A's sequence counter persists on
     A's disk, B's window edge on B's. *)
  let disk_a = Sim_disk.create ~name:"disk.a" ~latency:config.save_latency engine in
  let disk_b = Sim_disk.create ~name:"disk.b" ~latency:config.save_latency engine in
  let endpoint =
    Endpoint.create ~sender_name:"a" ~receiver_name:"b" ~link_name:"a->b"
      ~framing:config.framing ~window:config.window
      ~link_prng:(Prng.split prng) ~spi:0x6001l
      ~secret:"bidirectional-secret" ~link_latency:config.link_latency
      ~traffic:(Traffic.constant ~gap:config.message_gap)
      ~metrics
      ~sender_persistence:
        (Some
           {
             Sender.store = Sim_disk.store disk_a;
             key = "send_seq";
             policy = K_policy.make (K_policy.static config.k);
             trigger = Sender.On_count;
             retries = Durable.retries;
           })
      ~receiver_persistence:
        (Some
           {
             Receiver.store = Sim_disk.store disk_b;
             key = "recv_edge";
             policy = K_policy.make (K_policy.static config.k);
             robust = false;
             wakeup_buffer = true;
             retries = Durable.retries;
           })
      engine
  in
  let sender_a = Endpoint.sender endpoint in
  let receiver_b = Endpoint.receiver endpoint in
  let adversary =
    match Endpoint.adversary endpoint with
    | Some a -> a
    | None -> assert false (* default tap is on *)
  in
  (* Traffic-based dead-peer detection at B: every delivery from A is
     proof of life; a probing cycle that sees none is a miss. *)
  let death_detected_at = ref None in
  let sa_torn_down = ref false in
  let teardown_timer = ref None in
  let dpd =
    Dpd.create engine config.dpd
      ~send_probe:(fun () -> ())
      ~on_dead:(fun () ->
        if !death_detected_at = None then begin
          death_detected_at := Some (Engine.now engine);
          (* Keep the SAs alive for a bounded period only (Section 6:
             "the waiting time ... cannot be too long"). *)
          teardown_timer :=
            Some
              (Engine.schedule_after engine ~after:config.keep_alive (fun () ->
                   sa_torn_down := true;
                   (* Deleting the SA: subsequent packets from A no
                      longer verify under any installed state. *)
                   Receiver.install_sa receiver_b
                     (Sa.create
                        (Sa.derive_params
                           ~algo:{ Sa.default_algo with framing = config.framing }
                           ~window_width:config.window ~spi:0x6002l
                           ~secret:"post-teardown-unrelated" ()))))
        end)
  in
  Dpd.start dpd;
  let announce_seq = ref None in
  let first_recovery_delivery = ref None in
  let deliveries_after_recovery = ref 0 in
  Receiver.on_deliver receiver_b (fun ~seq ~payload:_ ->
      Dpd.probe_acked dpd;
      (match !teardown_timer with
      | Some h when not !sa_torn_down ->
        (* The peer is back: cancel the pending teardown. *)
        Engine.cancel h;
        teardown_timer := None
      | Some _ | None -> ());
      match !announce_seq with
      | Some a when seq >= a ->
        if !first_recovery_delivery = None then
          first_recovery_delivery := Some (Engine.now engine);
        incr deliveries_after_recovery
      | Some _ | None -> ());
  (* Fault injection: A resets, then wakes after the downtime. *)
  ignore (Engine.schedule_at engine ~at:reset_at (fun () -> Sender.reset sender_a));
  ignore
    (Engine.schedule_at engine ~at:(Time.add reset_at downtime) (fun () ->
         Sender.wakeup sender_a
           ~on_ready:(fun () ->
             (* The first post-wakeup message carries the leaped
                sequence number: it is the announcement. *)
             announce_seq := Some (Sender.next_seq sender_a);
             if replay_announce then begin
               (* Replay the announcement once it has been captured. *)
               let wait = Time.mul config.link_latency 4 in
               ignore
                 (Engine.schedule_after engine ~after:wait (fun () ->
                      match !announce_seq with
                      | None -> ()
                      | Some a ->
                        (* The peek reads the wire as the survivor's
                           SA frames it: an ESN packet carries only the
                           low 32 bits, inferred from B's edge. *)
                        let peek_seq wire =
                          Esp.seq_of_packet
                            ~sa:(Receiver.sa receiver_b).Sa.params
                            ~edge:(Receiver.right_edge receiver_b) wire
                        in
                        ignore
                          (Resets_attack.Adversary.replay_matching adversary
                             (fun pkt ->
                               match peek_seq pkt.Packet.wire with
                               | Some s -> s = a
                               | None -> false))))
             end)
           ()));
  Endpoint.start endpoint;
  ignore (Engine.run ~until:horizon engine);
  let announce_delivered =
    match !announce_seq with
    | None -> false
    | Some a -> Metrics.delivery_count metrics ~seq:a >= 1
  in
  let replay_rejected =
    (not replay_announce)
    ||
    match !announce_seq with
    | None -> false
    | Some a -> Metrics.delivery_count metrics ~seq:a <= 1
  in
  {
    death_detected_at = !death_detected_at;
    sa_survived = not !sa_torn_down;
    announce_accepted = announce_delivered;
    replayed_announce_rejected = replay_rejected;
    convergence_time =
      Option.map (fun t -> Time.diff t reset_at) !first_recovery_delivery;
    deliveries_after_recovery = !deliveries_after_recovery;
  }
