open Resets_util
open Resets_sim
open Resets_persist
open Resets_ipsec

type strategy = Make_before_break | Hard_expiry

type config = {
  lifetime_packets : int;
  rekey_margin : int;
  k : int;
  save_latency : Time.t;
  message_gap : Time.t;
  link_latency : Time.t;
  ike_cost : Ike.cost;
  horizon : Time.t;
}

let default_config =
  {
    lifetime_packets = 1000;
    rekey_margin = 200;
    k = 25;
    save_latency = Time.of_us 100;
    message_gap = Time.of_us 20;
    link_latency = Time.of_us 10;
    (* a LAN-speed IKE so several rollovers fit in one run: 200 us per
       asymmetric op, 1 ms RTT -> 2.8 ms per handshake, well inside the
       4 ms margin *)
    ike_cost =
      { Ike.compute = Time.of_us 200; rtt = Time.of_ms 1; kdf_iterations = 256 };
    horizon = Time.of_ms 100;
  }

type outcome = {
  rekeys_completed : int;
  delivered : int;
  messages_lost : int;
  duplicate_deliveries : int;
  max_delivery_gap : Time.t;
  persisted_keys_live : int;
}

let run ?(seed = 5) strategy config =
  if config.rekey_margin >= config.lifetime_packets then
    invalid_arg "Rekey.run: margin must be below the lifetime";
  let engine = Engine.create () in
  let prng = Prng.create seed in
  let disk = Sim_disk.create ~name:"disk.q" ~latency:config.save_latency engine in
  (* One Receiver component per live epoch, each with its own metrics
     (sequence spaces restart at 1 per SPI) and its own key on the one
     receiver-host disk. Retired epochs keep their metrics in
     [all_metrics] so end-of-run totals cover the whole history. *)
  let recv_states : (int32, Receiver.t) Hashtbl.t = Hashtbl.create 4 in
  let all_metrics : Metrics.t list ref = ref [] in
  let sent = ref 0 in
  let rekeys = ref 0 in
  let last_delivery = ref Time.zero in
  let max_gap = ref Time.zero in
  let key_of spi = Printf.sprintf "spi-%ld" spi in
  let install_epoch params =
    let sa = Sa.create params in
    let metrics = Metrics.create () in
    all_metrics := metrics :: !all_metrics;
    let receiver =
      Receiver.create
        ~name:(Printf.sprintf "q.%ld" params.Sa.spi)
        ~sa ~metrics
        ~persistence:
          (Some
             {
               Receiver.store = Sim_disk.store disk;
               key = key_of params.Sa.spi;
               policy = K_policy.make (K_policy.static config.k);
               robust = false;
               wakeup_buffer = false;
               retries = Durable.retries;
             })
        engine
    in
    Receiver.on_deliver receiver (fun ~seq:_ ~payload:_ ->
        let now = Engine.now engine in
        let gap = Time.diff now !last_delivery in
        if Time.(!max_gap < gap) then max_gap := gap;
        last_delivery := now);
    Hashtbl.replace recv_states params.Sa.spi receiver
  in
  let retire_epoch spi =
    Hashtbl.remove recv_states spi;
    Sim_disk.remove disk ~key:(key_of spi)
  in
  (* ---- receiver: demultiplex by SPI into the epoch's component ---- *)
  let receive wire =
    match Esp.spi_of_packet wire with
    | None -> ()
    | Some spi -> (
      match Hashtbl.find_opt recv_states spi with
      | None -> () (* epoch already retired: the packet is lost *)
      | Some receiver -> Receiver.on_packet receiver (Packet.fresh wire))
  in
  let wire = Link.create ~latency:config.link_latency engine in
  Link.set_deliver wire receive;
  (* ---- sender with rollover --------------------------------------- *)
  let next_spi = ref 0x9000l in
  let sender_params = ref None in
  let sent_in_epoch = ref 0 in
  let rekey_started = ref false in
  let start_rekey ~old_spi ~resume =
    let spi = !next_spi in
    next_spi := Int32.add spi 1l;
    Ike.establish engine ~cost:config.ike_cost ~prng ~spi ~on_complete:(fun params ->
        incr rekeys;
        install_epoch params;
        sender_params := Some params;
        sent_in_epoch := 0;
        rekey_started := false;
        resume ();
        (* retire the old epoch once its in-flight traffic has
           drained *)
        Option.iter
          (fun spi ->
            ignore
              (Engine.schedule_after engine
                 ~after:(Time.mul config.link_latency 4)
                 (fun () -> retire_epoch spi)))
          old_spi)
  in
  let rec send_tick () =
    (match !sender_params with
    | None -> () (* hard-expiry outage: waiting for the new SA *)
    | Some params ->
      if !sent_in_epoch >= config.lifetime_packets then begin
        (* lifetime exhausted before the replacement arrived *)
        match strategy with
        | Hard_expiry | Make_before_break ->
          sender_params := None;
          if not !rekey_started then begin
            rekey_started := true;
            start_rekey ~old_spi:(Some params.Sa.spi) ~resume:(fun () -> ())
          end
      end
      else begin
        let seq = !sent_in_epoch + 1 in
        sent_in_epoch := seq;
        incr sent;
        Link.send wire (Esp.encap ~sa:params ~seq ~payload:"data");
        if
          strategy = Make_before_break
          && (not !rekey_started)
          && seq >= config.lifetime_packets - config.rekey_margin
        then begin
          rekey_started := true;
          start_rekey ~old_spi:(Some params.Sa.spi) ~resume:(fun () -> ())
        end
      end);
    ignore (Engine.schedule_after engine ~after:config.message_gap send_tick)
  in
  (* epoch 0 *)
  let params0 =
    Sa.derive_params ~spi:0x8000l ~secret:"rekey-initial" ()
  in
  install_epoch params0;
  sender_params := Some params0;
  ignore (Engine.schedule_after engine ~after:config.message_gap send_tick);
  ignore (Engine.run ~until:config.horizon engine);
  let totals = Metrics.create () in
  List.iter (fun m -> Metrics.absorb ~into:totals m) !all_metrics;
  {
    rekeys_completed = !rekeys;
    delivered = totals.Metrics.delivered;
    messages_lost = !sent - totals.Metrics.delivered;
    duplicate_deliveries = totals.Metrics.duplicate_deliveries;
    max_delivery_gap = !max_gap;
    persisted_keys_live = Sim_disk.key_count disk;
  }
