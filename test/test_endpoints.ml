(* Endpoint unit tests: the Sender (paper's process p) and Receiver
   (process q) driven directly on the engine, with hand-placed resets
   so we can check the Figure 1/2 accounting point for point. *)

open Resets_sim
open Resets_persist
open Resets_ipsec
open Resets_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let us = Time.of_us

(* A fixture wiring sender -> link -> receiver with given parameters. *)
type fixture = {
  engine : Engine.t;
  sender : Sender.t;
  receiver : Receiver.t;
  disk_p : Sim_disk.t;
  disk_q : Sim_disk.t;
  metrics : Metrics.t;
}

let make_fixture ?(kp = 5) ?(kq = 5) ?(w = 64) ?(gap = us 10) ?(save_latency = us 40)
    ?(link_latency = us 1) ?(robust = false) ?(wakeup_buffer = true)
    ?(volatile = false) () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let params = Sa.derive_params ~window_width:w ~spi:0x1l ~secret:"fixture" () in
  let sa_p = Sa.create params and sa_q = Sa.create params in
  let link = Link.create ~latency:link_latency engine in
  let disk_p = Sim_disk.create ~name:"dp" ~latency:save_latency engine in
  let disk_q = Sim_disk.create ~name:"dq" ~latency:save_latency engine in
  let persistence_p =
    if volatile then None
    else
      Some
        {
          Sender.store = Sim_disk.store disk_p;
          key = "send_seq";
          policy = K_policy.make (K_policy.static kp);
          trigger = Sender.On_count;
          retries = 3;
        }
  in
  let persistence_q =
    if volatile then None
    else
      Some
        {
          Receiver.store = Sim_disk.store disk_q;
          key = "recv_edge";
          policy = K_policy.make (K_policy.static kq);
          robust;
          wakeup_buffer;
          retries = 3;
        }
  in
  let sender =
    Sender.create ~sa:sa_p ~send:(Link.send link)
      ~traffic:(Resets_workload.Traffic.constant ~gap)
      ~metrics ~persistence:persistence_p engine
  in
  let receiver = Receiver.create ~sa:sa_q ~metrics ~persistence:persistence_q engine in
  Link.set_deliver link (Receiver.on_packet receiver);
  { engine; sender; receiver; disk_p; disk_q; metrics }

let run_until f t = ignore (Engine.run ~until:t f.engine)

(* ------------------------------------------------------------------ *)
(* Sender *)

let test_sender_sends_at_gap () =
  let f = make_fixture ~gap:(us 10) () in
  Sender.start f.sender;
  run_until f (us 105);
  check_int "10 messages in 105us" 10 f.metrics.Metrics.sent;
  check_int "next seq" 11 (Sender.next_seq f.sender)

let test_sender_periodic_save_cadence () =
  (* Kp = 5: SAVE triggers when the next-to-send number reaches
     lst + 5, i.e. stored values 6, 11, 16, ... *)
  let f = make_fixture ~kp:5 ~gap:(us 10) ~save_latency:(us 1) () in
  Sender.start f.sender;
  run_until f (us 1005);
  check_int "sent 100" 100 f.metrics.Metrics.sent;
  check_int "20 saves" 20 (Sim_disk.tally f.disk_p).completed;
  Alcotest.(check (option int)) "last stored" (Some 101) (Sender.last_stored f.sender)

let test_sender_reset_stops_sending () =
  let f = make_fixture () in
  Sender.start f.sender;
  ignore (Engine.schedule_at f.engine ~at:(us 55) (fun () -> Sender.reset f.sender));
  run_until f (us 200);
  check_int "stopped at reset" 5 f.metrics.Metrics.sent;
  check_bool "down" true (Sender.is_down f.sender)

let test_sender_wakeup_leaps_and_resumes () =
  let f = make_fixture ~kp:5 ~gap:(us 10) ~save_latency:(us 1) () in
  Sender.start f.sender;
  (* At 105us: 10 sent, next = 11; last completed save stored 11.
     Reset, then wake. FETCH 11, leap 10 -> resume at 21. *)
  ignore (Engine.schedule_at f.engine ~at:(us 105) (fun () -> Sender.reset f.sender));
  let ready_at = ref None in
  ignore
    (Engine.schedule_at f.engine ~at:(us 200) (fun () ->
         Sender.wakeup f.sender
           ~on_ready:(fun () -> ready_at := Some (Engine.now f.engine))
           ()));
  run_until f (us 195);
  check_int "sent before reset" 10 f.metrics.Metrics.sent;
  run_until f (us 1000);
  (* resumed at 21, then kept counting one per message *)
  check_int "resumed at 21" 21
    (Sender.next_seq f.sender - (f.metrics.Metrics.sent - 10));
  check_int "skipped = leap - 0 pending" 10 f.metrics.Metrics.skipped_seqnos;
  check_bool "blocking save delayed readiness" true
    (match !ready_at with
    | Some t -> Time.(us 200 < t)
    | None -> false);
  check_bool "no reuse" true (f.metrics.Metrics.reused_seqnos = 0)

let test_sender_wakeup_after_inflight_save_lost () =
  (* Reset strikes mid-SAVE: the fetched value is one interval behind
     (Figure 1, first branch). *)
  let f = make_fixture ~kp:5 ~gap:(us 10) ~save_latency:(us 35) () in
  Sender.start f.sender;
  (* SAVE(6) begins when message 5 is sent at t=50, completes t=85.
     Reset at t=60 loses it; durable state is still the preloaded 1. *)
  ignore (Engine.schedule_at f.engine ~at:(us 60) (fun () -> Sender.reset f.sender));
  ignore
    (Engine.schedule_at f.engine ~at:(us 100) (fun () -> Sender.wakeup f.sender ()));
  (* wakeup SAVE completes at 135us; check durable state before the
     next periodic SAVE (which lands around 220us) becomes durable *)
  run_until f (us 150);
  check_int "one save lost" 1 (Sim_disk.tally f.disk_p).lost;
  (* fetched 1 + leap 10 = 11 > 6 (last used next-seq) : fresh *)
  Alcotest.(check (option int)) "durable after wakeup" (Some 11)
    (Sender.last_stored f.sender);
  run_until f (us 500);
  check_bool "fresh numbers only" true (f.metrics.Metrics.reused_seqnos = 0)

let test_sender_volatile_reuses_numbers () =
  let f = make_fixture ~volatile:true () in
  Sender.start f.sender;
  ignore (Engine.schedule_at f.engine ~at:(us 105) (fun () -> Sender.reset f.sender));
  ignore (Engine.schedule_at f.engine ~at:(us 120) (fun () -> Sender.wakeup f.sender ()));
  run_until f (us 300);
  check_bool "volatile reuse detected" true (f.metrics.Metrics.reused_seqnos > 0);
  Alcotest.(check (option int)) "no disk" None (Sender.last_stored f.sender)

let test_sender_double_wakeup_rejected () =
  let f = make_fixture () in
  Sender.start f.sender;
  run_until f (us 30);
  Alcotest.check_raises "not down" (Invalid_argument "Sender.wakeup: not down")
    (fun () -> Sender.wakeup f.sender ())

let test_sender_stop () =
  let f = make_fixture () in
  Sender.start f.sender;
  ignore (Engine.schedule_at f.engine ~at:(us 35) (fun () -> Sender.stop f.sender));
  run_until f (us 200);
  check_int "stopped" 3 f.metrics.Metrics.sent

(* ------------------------------------------------------------------ *)
(* Receiver *)

let test_receiver_delivers_and_saves () =
  let f = make_fixture ~kq:5 ~gap:(us 10) ~save_latency:(us 1) () in
  Sender.start f.sender;
  run_until f (us 1010);
  check_int "delivered all" 100 f.metrics.Metrics.delivered;
  check_bool "edge advanced" true (Receiver.right_edge f.receiver >= 100);
  check_bool "saves happened" true ((Sim_disk.tally f.disk_q).completed >= 19)

let test_receiver_rejects_bad_icv () =
  let f = make_fixture () in
  let bogus = String.make 40 'x' in
  Receiver.on_packet f.receiver (Packet.fresh bogus);
  check_int "bad icv counted" 1 f.metrics.Metrics.bad_icv;
  check_int "nothing delivered" 0 f.metrics.Metrics.delivered

let test_receiver_down_drops () =
  let f = make_fixture () in
  Sender.start f.sender;
  ignore (Engine.schedule_at f.engine ~at:(us 55) (fun () -> Receiver.reset f.receiver));
  run_until f (us 200);
  check_bool "drops counted" true (f.metrics.Metrics.dropped_host_down > 0);
  check_bool "down" true (Receiver.is_down f.receiver)

let test_receiver_wakeup_buffering () =
  (* Packets arriving during the wakeup SAVE are buffered and processed
     when it completes (the paper's choice). *)
  let f = make_fixture ~kq:5 ~gap:(us 10) ~save_latency:(us 100) () in
  Sender.start f.sender;
  ignore (Engine.schedule_at f.engine ~at:(us 200) (fun () -> Receiver.reset f.receiver));
  ignore
    (Engine.schedule_at f.engine ~at:(us 210) (fun () -> Receiver.wakeup f.receiver ()));
  (* wakeup SAVE runs 210..310; ~10 messages arrive in that window *)
  run_until f (us 1000);
  check_bool "buffered some" true (f.metrics.Metrics.buffered_during_wakeup >= 8);
  check_bool "recovered" true (not (Receiver.is_down f.receiver));
  check_int "no replay accepted" 0 f.metrics.Metrics.replay_accepted

let test_receiver_wakeup_drop_mode () =
  let f =
    make_fixture ~kq:5 ~gap:(us 10) ~save_latency:(us 100) ~wakeup_buffer:false ()
  in
  Sender.start f.sender;
  ignore (Engine.schedule_at f.engine ~at:(us 200) (fun () -> Receiver.reset f.receiver));
  ignore
    (Engine.schedule_at f.engine ~at:(us 210) (fun () -> Receiver.wakeup f.receiver ()));
  run_until f (us 1000);
  check_int "nothing buffered" 0 f.metrics.Metrics.buffered_during_wakeup;
  check_bool "dropped instead" true (f.metrics.Metrics.dropped_host_down > 1)

let test_receiver_discards_bounded_after_reset () =
  (* Instant crash/wakeup: the in-gap fresh messages arriving after
     recovery are discarded, at most 2Kq of them (Theorem ii). *)
  let kq = 5 in
  let f = make_fixture ~kq ~gap:(us 10) ~save_latency:(us 30) () in
  Sender.start f.sender;
  ignore (Engine.schedule_at f.engine ~at:(us 300) (fun () -> Receiver.reset f.receiver));
  ignore
    (Engine.schedule_at f.engine ~at:(us 301) (fun () -> Receiver.wakeup f.receiver ()));
  run_until f (us 2000);
  check_bool "some fresh discarded" true (f.metrics.Metrics.fresh_rejected > 0);
  check_bool "bounded by 2Kq" true
    (f.metrics.Metrics.fresh_rejected_undelivered <= 2 * kq);
  check_int "no replay accepted" 0 f.metrics.Metrics.replay_accepted

let test_receiver_volatile_accepts_replay_after_reset () =
  let f = make_fixture ~volatile:true () in
  (* deliver 1..3 legitimately *)
  let params = (Receiver.sa f.receiver).Sa.params in
  let send seq replayed =
    let wire = Esp.encap ~sa:params ~seq ~payload:"m" in
    Receiver.on_packet f.receiver
      (if replayed then Packet.mark_replayed (Packet.fresh wire) else Packet.fresh wire)
  in
  send 1 false;
  send 2 false;
  send 3 false;
  Receiver.reset f.receiver;
  Receiver.wakeup f.receiver ();
  send 1 true;
  send 2 true;
  check_int "replays accepted (the Section 3 failure)" 2
    f.metrics.Metrics.replay_accepted

let test_receiver_savefetch_rejects_replay_after_reset () =
  let f = make_fixture ~kq:1 ~save_latency:(us 1) () in
  let params = (Receiver.sa f.receiver).Sa.params in
  let send seq replayed =
    let wire = Esp.encap ~sa:params ~seq ~payload:"m" in
    Receiver.on_packet f.receiver
      (if replayed then Packet.mark_replayed (Packet.fresh wire) else Packet.fresh wire)
  in
  send 1 false;
  send 2 false;
  send 3 false;
  run_until f (us 100) (* let saves complete *);
  Receiver.reset f.receiver;
  Receiver.wakeup f.receiver ();
  run_until f (us 300) (* wakeup save *);
  send 1 true;
  send 2 true;
  send 3 true;
  check_int "all replays rejected" 0 f.metrics.Metrics.replay_accepted;
  check_int "three rejections" 3 f.metrics.Metrics.replay_rejected

let test_receiver_robust_catchup () =
  (* A jump beyond durable + 2Kq triggers the synchronous catch-up save
     and the packet is still delivered (after the save). *)
  let f = make_fixture ~kq:2 ~robust:true ~save_latency:(us 50) () in
  let params = (Receiver.sa f.receiver).Sa.params in
  let send seq =
    Receiver.on_packet f.receiver
      (Packet.fresh (Esp.encap ~sa:params ~seq ~payload:"m"))
  in
  (* durable = 0; leap = 4; seq 100 jumps far beyond durable + 4 *)
  send 100;
  check_int "not yet delivered (held for save)" 0 f.metrics.Metrics.delivered;
  run_until f (us 200);
  check_int "delivered after catch-up" 1 f.metrics.Metrics.delivered;
  Alcotest.(check (option int)) "edge durable" (Some 100)
    (Receiver.last_stored f.receiver);
  (* now a crash + wakeup resumes at 100 + 4: replay of 100 rejected *)
  Receiver.reset f.receiver;
  Receiver.wakeup f.receiver ();
  run_until f (us 400);
  Receiver.on_packet f.receiver
    (Packet.mark_replayed (Packet.fresh (Esp.encap ~sa:params ~seq:100 ~payload:"m")));
  check_int "replay after jump rejected" 0 f.metrics.Metrics.replay_accepted

let test_receiver_robust_reset_during_catchup () =
  (* a crash while the urgent catch-up SAVE is in flight: the held
     packet is lost with RAM, the durable edge stays behind, and the
     recovered receiver still never double-delivers *)
  let f = make_fixture ~kq:2 ~robust:true ~save_latency:(us 50) () in
  let params = (Receiver.sa f.receiver).Sa.params in
  let send seq replayed =
    let wire = Esp.encap ~sa:params ~seq ~payload:"m" in
    Receiver.on_packet f.receiver
      (if replayed then Packet.mark_replayed (Packet.fresh wire) else Packet.fresh wire)
  in
  send 100 false (* held for catch-up SAVE *);
  run_until f (us 20) (* crash strikes mid-catch-up *);
  Receiver.reset f.receiver;
  Receiver.wakeup f.receiver ();
  run_until f (us 400);
  check_int "held packet was never delivered" 0 f.metrics.Metrics.delivered;
  (* the replayed copy may be delivered once (the original never was)
     but never twice *)
  send 100 true;
  run_until f (us 800);
  send 100 true;
  run_until f (us 1200);
  check_bool "at most one delivery of #100" true
    (Metrics.delivery_count f.metrics ~seq:100 <= 1);
  check_int "no duplicates" 0 f.metrics.Metrics.duplicate_deliveries

let test_receiver_non_robust_jump_vulnerability () =
  (* The same schedule against the paper's receiver: the jump's SAVE is
     lost to the crash and the replay is accepted — the corner case the
     model checker found (E11). *)
  let f = make_fixture ~kq:2 ~robust:false ~save_latency:(us 50) () in
  let params = (Receiver.sa f.receiver).Sa.params in
  Receiver.on_packet f.receiver
    (Packet.fresh (Esp.encap ~sa:params ~seq:100 ~payload:"m"));
  check_int "delivered immediately" 1 f.metrics.Metrics.delivered;
  (* crash before the background SAVE(100) completes *)
  Receiver.reset f.receiver;
  Receiver.wakeup f.receiver ();
  run_until f (us 400);
  Receiver.on_packet f.receiver
    (Packet.mark_replayed (Packet.fresh (Esp.encap ~sa:params ~seq:100 ~payload:"m")));
  check_int "replay accepted (documented weakness)" 1
    f.metrics.Metrics.replay_accepted

(* The daemon hands the receiver a frame in its rx arena
   ([Receiver.on_frame]) and reuses the arena as soon as the call
   returns. A frame the receiver keeps past the call must therefore be
   its own copy: here one waits in the wakeup buffer and one in a
   robust receiver's catch-up buffer while the caller's buffer is
   overwritten, and each SAVE completes only when the test releases
   it. *)
let test_kept_frames_outlive_the_callers_buffer () =
  let engine = Engine.create () in
  let params = Sa.derive_params ~window_width:64 ~spi:0x5l ~secret:"kept" () in
  let receiver ~robust =
    let disk = Sim_disk.create ~name:"dq" ~latency:(us 1) engine in
    let inner = Sim_disk.store disk in
    let held = ref [] in
    let store =
      {
        inner with
        Store.save =
          (fun ~key ~value ~on_error ~on_complete ->
            held := (fun () -> inner.Store.save ~key ~value ~on_error ~on_complete) :: !held);
      }
    in
    let release () = List.iter (fun save -> save ()) (List.rev !held) in
    let metrics = Metrics.create () in
    let rx =
      Receiver.create ~sa:(Sa.create params) ~metrics
        ~persistence:
          (Some
             {
               Receiver.store;
               key = "recv_edge";
               policy = K_policy.make (K_policy.static 5);
               robust;
               wakeup_buffer = true;
               retries = 3;
             })
        engine
    in
    let got = ref [] in
    Receiver.on_deliver rx (fun ~seq ~payload ->
        got := (seq, Resets_util.Slice.to_string payload) :: !got);
    (rx, metrics, release, got)
  in
  (* one frame at an odd offset of a caller-owned buffer, as a receive
     batch leaves it in the rx arena, and one filling a buffer of its
     own: neither may be kept as a view *)
  let buf = Bytes.make 512 '\000' in
  let frame ~off ~seq payload =
    let len = Esp.encap_into ~sa:params ~seq ~payload buf ~off in
    Resets_util.Slice.make buf ~off ~len
  in
  let slot = Bytes.create (Esp.overhead ~sa:params + String.length "catch-up-held") in
  let q1, m1, release1, got1 = receiver ~robust:false in
  Receiver.reset q1;
  Receiver.wakeup q1 ();
  check_bool "waking on a held SAVE" true (Receiver.is_recovering q1);
  Receiver.on_frame q1 (frame ~off:3 ~seq:20 "wakeup-buffered");
  check_int "parked in the wakeup buffer" 1 m1.Metrics.buffered_during_wakeup;
  (* durable 0 + leap 10: seq 100 waits for the catch-up SAVE *)
  let q2, m2, release2, got2 = receiver ~robust:true in
  Receiver.on_frame q2
    (Resets_util.Slice.make slot ~off:0
       ~len:(Esp.encap_into ~sa:params ~seq:100 ~payload:"catch-up-held" slot ~off:0));
  check_int "held for the catch-up SAVE" 0 m2.Metrics.delivered;
  (* the next receive batch reuses the buffers *)
  Bytes.fill buf 0 (Bytes.length buf) '\xff';
  Bytes.fill slot 0 (Bytes.length slot) '\xff';
  release1 ();
  release2 ();
  ignore (Engine.run ~until:(us 100) engine);
  let delivered = Alcotest.(check (list (pair int string))) in
  delivered "wakeup-buffered frame" [ (20, "wakeup-buffered") ] !got1;
  delivered "catch-up frame" [ (100, "catch-up-held") ] !got2;
  check_int "no ICV failure" 0 (m1.Metrics.bad_icv + m2.Metrics.bad_icv)

(* ------------------------------------------------------------------ *)
(* Store faults: the recovery retries, the degrade hand-off and the
   write-failure guards, one case per side *)

let faulty spec = Faults.create ~spec ~prng:(Resets_util.Prng.create 7)

let corrupt_reads = { Faults.none with Faults.read_corrupt_prob = 1. }
let failing_writes = { Faults.none with Faults.write_fail_prob = 1. }

(* Every wakeup FETCH serves a corrupt record: the retries wait 1x then
   2x the disk latency, the third failure spends the budget of 3 and
   the degrade handler fires once. It re-establishes on a fresh SA: the
   side that is down comes up on it, the side that stayed up re-syncs
   its store. *)
let test_fetch_retries_then_degrade side () =
  let latency = us 40 in
  let f = make_fixture ~kp:5 ~kq:5 ~gap:(us 10) ~save_latency:latency () in
  let disk = match side with `P -> f.disk_p | `Q -> f.disk_q in
  Sim_disk.set_faults disk (faulty corrupt_reads);
  let degraded_at = ref [] and ready = ref 0 in
  let fresh () =
    Sa.create (Sa.derive_params ~window_width:64 ~spi:0x2l ~secret:"fresh" ())
  in
  let degrade () =
    degraded_at := Engine.now f.engine :: !degraded_at;
    check_int "fetch failures at degrade" 3 f.metrics.Metrics.fetch_failures;
    check_int "retries at degrade" 2 f.metrics.Metrics.save_retries;
    Sender.install_sa f.sender (fresh ());
    Receiver.install_sa f.receiver (fresh ());
    match side with
    | `P ->
      Sender.resume_fresh f.sender;
      Receiver.resync_store f.receiver
    | `Q ->
      Receiver.resume_at f.receiver ~edge:0;
      Sender.resync_store f.sender
  in
  Sender.set_degrade_handler f.sender degrade;
  Receiver.set_degrade_handler f.receiver degrade;
  Sender.start f.sender;
  let wake_at = us 200 in
  ignore
    (Engine.schedule_at f.engine ~at:(us 105) (fun () ->
         match side with
         | `P -> Sender.reset f.sender
         | `Q -> Receiver.reset f.receiver));
  ignore
    (Engine.schedule_at f.engine ~at:wake_at (fun () ->
         let on_ready () = incr ready in
         match side with
         | `P -> Sender.wakeup f.sender ~on_ready ()
         | `Q -> Receiver.wakeup f.receiver ~on_ready ()));
  let corrupt_by t =
    run_until f t;
    (Sim_disk.tally disk).corrupt
  in
  let just_before t = Time.of_ns (Int64.pred (Time.to_ns t)) in
  let first_retry = Time.add wake_at latency
  and second_retry = Time.add wake_at (Time.mul latency 3) in
  let recovering () =
    match side with
    | `P -> Sender.is_recovering f.sender
    | `Q -> Receiver.is_recovering f.receiver
  in
  check_int "first FETCH at wakeup" 1 (corrupt_by wake_at);
  check_bool "recovering while retrying" true (recovering ());
  check_int "no retry before 1x latency" 1 (corrupt_by (just_before first_retry));
  check_int "first retry after 1x latency" 2 (corrupt_by first_retry);
  check_int "no retry before 2x more" 2 (corrupt_by (just_before second_retry));
  check_int "second retry after 2x more" 3 (corrupt_by second_retry);
  Alcotest.(check (list int64)) "degrade handler fired once, at the third failure"
    [ Time.to_ns second_retry ]
    (List.map Time.to_ns !degraded_at);
  check_int "counted once" 1 f.metrics.Metrics.degraded_reestablish;
  check_int "no further FETCH" 3 (corrupt_by (us 2000));
  check_bool "up on the fresh SA" false
    (Sender.is_down f.sender || Receiver.is_down f.receiver);
  check_bool "no longer recovering" false (recovering ());
  check_int "wakeup's on_ready fired once" 1 !ready;
  check_bool "traffic flows on the fresh SA" true
    (Receiver.right_edge f.receiver > 0)

(* An ESN association that degrades to IKE through
   [Endpoint.reestablish] stays ESN: the fresh SA negotiates the live
   one's transforms. Had both peers fallen back to Seq64 together,
   delivery alone would not show it, so the fresh SAs' algo is checked
   too. *)
let test_esn_reestablish_stays_esn () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let esn = { Sa.default_algo with framing = Sa.Esn32 } in
  let disk_q = Sim_disk.create ~name:"dq" ~latency:(us 40) engine in
  Sim_disk.set_faults disk_q (faulty corrupt_reads);
  let ep =
    Endpoint.create ~framing:Sa.Esn32 ~spi:0x3l ~secret:"esn-degrade" ~link_latency:(us 1)
      ~traffic:(Resets_workload.Traffic.constant ~gap:(us 10))
      ~metrics ~sender_persistence:None
      ~receiver_persistence:
        (Some
           {
             Receiver.store = Sim_disk.store disk_q;
             key = "recv_edge";
             policy = K_policy.make (K_policy.static 5);
             robust = false;
             wakeup_buffer = true;
             retries = 3;
           })
      engine
  in
  let sender = Endpoint.sender ep and receiver = Endpoint.receiver ep in
  let delivered_at_install = ref (-1) in
  Receiver.set_degrade_handler receiver (fun () ->
      Endpoint.reestablish ep ~cost:Ike.default_cost
        ~prng:(Resets_util.Prng.create 5) ~spi:0x4l ~on_installed:(fun () ->
          delivered_at_install := metrics.Metrics.delivered;
          Endpoint.resume_fresh ep));
  Endpoint.start ep;
  ignore (Engine.schedule_at engine ~at:(us 105) (fun () -> Receiver.reset receiver));
  ignore
    (Engine.schedule_at engine ~at:(us 200) (fun () -> Receiver.wakeup receiver ()));
  ignore (Engine.run ~until:(Time.of_ms 40) engine);
  check_int "degraded once" 1 metrics.Metrics.degraded_reestablish;
  check_bool "re-established" true (!delivered_at_install >= 0);
  let fresh side sa =
    check_int (side ^ " holds the fresh SA") 0x4 (Int32.to_int sa.Sa.params.Sa.spi);
    check_bool (side ^ "'s fresh SA is ESN") true (sa.Sa.params.Sa.algo = esn)
  in
  fresh "p" (Sender.sa sender);
  fresh "q" (Receiver.sa receiver);
  check_bool "its frames deliver" true
    (metrics.Metrics.delivered - !delivered_at_install > 500)

(* q is reset again while its wakeup waits to retry a corrupt FETCH,
   then woken again. The first wakeup's retry timer must not fire into
   the second: one chain of 3 FETCHes, one degrade. (A timer that only
   checked that some wakeup is in progress ran both chains: 6 FETCHes
   and degrades at 320 and 350 us.) *)
let test_aborted_wakeup_retry_is_dropped () =
  let latency = us 40 in
  let f = make_fixture ~kp:5 ~kq:5 ~gap:(us 10) ~save_latency:latency () in
  Sim_disk.set_faults f.disk_q (faulty corrupt_reads);
  let degraded_at = ref [] in
  Receiver.set_degrade_handler f.receiver (fun () ->
      degraded_at := Time.to_ns (Engine.now f.engine) :: !degraded_at);
  Sender.start f.sender;
  let at t action = ignore (Engine.schedule_at f.engine ~at:(us t) action) in
  let wakeup () = Receiver.wakeup f.receiver ~on_ready:ignore () in
  at 105 (fun () -> Receiver.reset f.receiver);
  at 200 wakeup (* FETCH 1 fails; a retry is due at 240 *);
  at 220 (fun () -> Receiver.reset f.receiver);
  at 230 wakeup;
  run_until f (us 229);
  check_int "aborted wakeup's FETCH" 1 (Sim_disk.tally f.disk_q).corrupt;
  run_until f (us 2000);
  check_int "one chain of 3 FETCHes after the second wakeup" 4
    (Sim_disk.tally f.disk_q).corrupt;
  Alcotest.(check (list int64)) "one degrade, at the chain's third failure"
    [ Time.to_ns (us 350) ] !degraded_at;
  check_int "counted once" 1 f.metrics.Metrics.degraded_reestablish

(* Every SAVE after establishment fails. p keeps sending only up to
   durable + leap (1 + 10) and then holds its send slot, re-issuing
   the SAVE; q delivers up to its durable edge + leap (0 + 10) and
   holds the next packet for a catch-up SAVE that never lands. *)
let test_write_failures_engage_guards side () =
  let f = make_fixture ~kp:5 ~kq:5 ~gap:(us 10) ~save_latency:(us 40) () in
  match side with
  | `P ->
    Sim_disk.set_faults f.disk_p (faulty failing_writes);
    Sender.start f.sender;
    run_until f (us 1000);
    check_int "holds at durable + leap" 11 (Sender.next_seq f.sender);
    check_int "sent up to the hold" 10 f.metrics.Metrics.sent;
    check_bool "stalled sends counted" true (f.metrics.Metrics.sends_stalled > 0);
    check_bool "failed SAVEs counted" true (f.metrics.Metrics.save_failures > 0);
    Alcotest.(check (option int)) "durable value unchanged" (Some 1)
      (Sender.last_stored f.sender);
    check_bool "still up" false (Sender.is_down f.sender)
  | `Q ->
    Sim_disk.set_faults f.disk_q (faulty failing_writes);
    let params = (Receiver.sa f.receiver).Sa.params in
    let send seq =
      Receiver.on_packet f.receiver
        (Packet.fresh (Esp.encap ~sa:params ~seq ~payload:"m"))
    in
    for seq = 1 to 5 do send seq done;
    run_until f (us 50) (* SAVE(5) fails: the slide guard engages *);
    for seq = 6 to 12 do send seq done;
    run_until f (us 1000);
    check_int "delivered up to durable + leap" 10 f.metrics.Metrics.delivered;
    check_int "edge held" 10 (Receiver.right_edge f.receiver);
    check_int "catch-up gave up and degraded" 1
      f.metrics.Metrics.degraded_reestablish;
    check_int "catch-up retried twice" 2 f.metrics.Metrics.save_retries;
    Alcotest.(check (option int)) "durable edge unchanged" (Some 0)
      (Receiver.last_stored f.receiver)

(* ------------------------------------------------------------------ *)
(* Allocation per packet *)

(* A persisted receiver whose static K is never reached does the
   volatile receiver's work per in-order packet and nothing more: a
   static policy has no gap estimate to feed, so no instant is read or
   boxed. *)
let test_static_k_receiver_allocates_as_volatile () =
  let params = Sa.derive_params ~window_width:64 ~spi:0x1l ~secret:"alloc" () in
  let packets =
    Array.init 20_000 (fun i -> Packet.fresh (Esp.encap ~sa:params ~seq:(i + 1) ~payload:"m"))
  in
  let words_per_packet persistence =
    let engine = Engine.create () in
    let rx =
      Receiver.create ~sa:(Sa.create params) ~metrics:(Metrics.create ()) ~persistence engine
    in
    Receiver.on_packet rx packets.(0);
    let before = Gc.minor_words () in
    for i = 1 to Array.length packets - 1 do
      Receiver.on_packet rx packets.(i)
    done;
    let words = (Gc.minor_words () -. before) /. float_of_int (Array.length packets - 1) in
    check_int "all delivered" (Array.length packets) (Receiver.right_edge rx);
    words
  in
  let engine = Engine.create () in
  let disk = Sim_disk.create ~name:"dq" ~latency:(us 40) engine in
  let persisted =
    Some
      {
        Receiver.store = Sim_disk.store disk;
        key = "recv_edge";
        policy = K_policy.make (K_policy.static 1_000_000);
        robust = false;
        wakeup_buffer = true;
        retries = Durable.retries;
      }
  in
  let volatile = words_per_packet None and persisted = words_per_packet persisted in
  if persisted > volatile +. 0.01 then
    Alcotest.failf "persisted static-K receiver: %.2f minor words per packet, volatile %.2f"
      persisted volatile

(* ------------------------------------------------------------------ *)
(* Per-SA footprint *)

(* 256 endpoints built the way Multi_sa builds a shard's for an
   attacked scale run: one shared arena, keyed link generators and a
   capture tap bounded at Multi_sa's 4096 packets. Before the first packet
   an SA must cost well under what a preallocated tap ring and
   delivery table would (4096 words each): capacities are bounds, not
   allocations. *)
let test_endpoint_footprint () =
  let n = 256 in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live_words () in
  let engine = Engine.create ~hint:(4 * n) () in
  let hot = Sadb_flat.create ~capacity:(2 * n) ~w:64 () in
  let endpoint_of g =
    let link_prng = Resets_util.Prng.split (Resets_util.Prng.keyed ~seed:11 ~stream:g) in
    Endpoint.create
      ~sender_name:(Printf.sprintf "p%d" g)
      ~receiver_name:(Printf.sprintf "q%d" g)
      ~link_name:(Printf.sprintf "link%d" g)
      ~window:64 ~arena:hot ~link_prng
      ~tap:(Endpoint.Tap { capacity = Some 4096 })
      ~spi:(Int32.of_int (0x4000 + g))
      ~secret:(Printf.sprintf "multi-sa-%d" g)
      ~link_latency:(us 10)
      ~traffic:(Resets_workload.Traffic.constant ~gap:(us 400))
      ~metrics:(Metrics.create ()) ~sender_persistence:None
      ~receiver_persistence:None engine
  in
  let endpoints = Array.init n endpoint_of in
  let per_sa = (live_words () - before) / n in
  check_int "all built" n (Array.length (Sys.opaque_identity endpoints));
  if per_sa > 1024 then
    Alcotest.failf "%d live heap words per SA (budget 1024)" per_sa

let () =
  Alcotest.run "endpoints"
    [
      ( "sender",
        [
          Alcotest.test_case "send cadence" `Quick test_sender_sends_at_gap;
          Alcotest.test_case "save cadence" `Quick test_sender_periodic_save_cadence;
          Alcotest.test_case "reset stops" `Quick test_sender_reset_stops_sending;
          Alcotest.test_case "wakeup leap" `Quick test_sender_wakeup_leaps_and_resumes;
          Alcotest.test_case "mid-save crash" `Quick
            test_sender_wakeup_after_inflight_save_lost;
          Alcotest.test_case "volatile reuse" `Quick test_sender_volatile_reuses_numbers;
          Alcotest.test_case "wakeup when up" `Quick test_sender_double_wakeup_rejected;
          Alcotest.test_case "stop" `Quick test_sender_stop;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "deliver + save" `Quick test_receiver_delivers_and_saves;
          Alcotest.test_case "bad icv" `Quick test_receiver_rejects_bad_icv;
          Alcotest.test_case "down drops" `Quick test_receiver_down_drops;
          Alcotest.test_case "wakeup buffering" `Quick test_receiver_wakeup_buffering;
          Alcotest.test_case "wakeup drop mode" `Quick test_receiver_wakeup_drop_mode;
          Alcotest.test_case "bounded discards" `Quick
            test_receiver_discards_bounded_after_reset;
          Alcotest.test_case "volatile replay accepted" `Quick
            test_receiver_volatile_accepts_replay_after_reset;
          Alcotest.test_case "save/fetch replay rejected" `Quick
            test_receiver_savefetch_rejects_replay_after_reset;
          Alcotest.test_case "robust catch-up" `Quick test_receiver_robust_catchup;
          Alcotest.test_case "robust reset during catch-up" `Quick
            test_receiver_robust_reset_during_catchup;
          Alcotest.test_case "non-robust jump weakness" `Quick
            test_receiver_non_robust_jump_vulnerability;
          Alcotest.test_case "kept frames outlive the caller's buffer" `Quick
            test_kept_frames_outlive_the_callers_buffer;
        ] );
      ( "store faults",
        [
          Alcotest.test_case "p FETCH retries then degrade" `Quick
            (test_fetch_retries_then_degrade `P);
          Alcotest.test_case "q FETCH retries then degrade" `Quick
            (test_fetch_retries_then_degrade `Q);
          Alcotest.test_case "aborted wakeup's retry dropped" `Quick
            test_aborted_wakeup_retry_is_dropped;
          Alcotest.test_case "ESN SA degrades to IKE and stays ESN" `Quick
            test_esn_reestablish_stays_esn;
          Alcotest.test_case "p holds at durable + leap" `Quick
            (test_write_failures_engage_guards `P);
          Alcotest.test_case "q bounded slide on failing SAVEs" `Quick
            (test_write_failures_engage_guards `Q);
        ] );
      ( "footprint",
        [
          Alcotest.test_case "tapped endpoint at setup" `Quick test_endpoint_footprint;
          Alcotest.test_case "static K receiver allocates as volatile" `Quick
            test_static_k_receiver_allocates_as_volatile;
        ] );
    ]
