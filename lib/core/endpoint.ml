open Resets_sim
open Resets_util
open Resets_ipsec

type attack =
  | No_attack
  | Replay_all_at of Time.t
  | Wedge_at of Time.t
  | Flood of { start : Time.t; gap : Time.t }

type tap =
  | No_tap
  | Tap of { capacity : int option }

type t = {
  engine : Engine.t;
  window : int;
  arena : Sadb_flat.t option;
  link : Packet.t Link.t;
  adversary : Packet.t Resets_attack.Adversary.t option;
  sender : Sender.t;
  receiver : Receiver.t;
  metrics : Metrics.t;
}

let create ?trace ?(sender_name = "p") ?(receiver_name = "q")
    ?(link_name = "link") ?payload ?(framing = Packet.Seq64) ?(window = 64)
    ?arena ?(faults = Link.no_faults)
    ?(link_jitter = Time.zero) ?link_prng ?(tap = Tap { capacity = None })
    ~spi ~secret ~link_latency ~traffic ~metrics ~sender_persistence
    ~receiver_persistence engine =
  let params =
    Sa.derive_params ~window_width:window ?arena ~spi ~secret ()
  in
  let sa_p = Sa.create params and sa_q = Sa.create params in
  let link_prng =
    match link_prng with
    | Some p -> p
    | None -> Prng.create (Int32.to_int spi)
  in
  let link =
    Link.create ?trace ~name:link_name ~faults ~jitter:link_jitter
      ~prng:link_prng ~latency:link_latency engine
  in
  let adversary =
    match tap with
    | No_tap -> None
    | Tap { capacity } ->
      Some
        (Resets_attack.Adversary.create ?capacity ~link
           ~mark:Packet.mark_replayed engine)
  in
  let sender =
    Sender.create ?trace ~name:sender_name ?payload ~framing ~sa:sa_p
      ~send:(Link.send link) ~traffic ~metrics
      ~persistence:sender_persistence engine
  in
  let receiver =
    Receiver.create ?trace ~name:receiver_name ~framing ~sa:sa_q ~metrics
      ~persistence:receiver_persistence engine
  in
  Link.set_deliver link (Receiver.on_packet receiver);
  { engine; window; arena; link; adversary; sender; receiver; metrics }

let sender t = t.sender
let receiver t = t.receiver
let link t = t.link
let adversary t = t.adversary
let metrics t = t.metrics

let start t = Sender.start t.sender

let reestablish t ~cost ~prng ~spi ~on_installed =
  Ike.establish ~window_width:t.window ?arena:t.arena t.engine ~cost ~prng ~spi
    ~on_complete:(fun params ->
      Sender.install_sa t.sender (Sa.create params);
      Receiver.install_sa t.receiver (Sa.create params);
      on_installed ())

(* A down side comes up on the fresh SA; a side that stayed up (degraded
   from a catch-up failure) keeps running but must still re-sync its
   durable state to the fresh sequence space. *)
let resume_fresh t =
  if Receiver.is_down t.receiver then Receiver.resume_at t.receiver ~edge:0
  else Receiver.resync_store t.receiver;
  if Sender.is_down t.sender then Sender.resume_fresh t.sender
  else Sender.resync_store t.sender

let injected_count t =
  match t.adversary with
  | None -> 0
  | Some a -> Resets_attack.Adversary.injected_count a

let schedule_attack t ~message_gap attack =
  match (t.adversary, attack) with
  | _, No_attack -> ()
  | None, _ ->
    invalid_arg "Endpoint.schedule_attack: endpoint has no adversary tap"
  | Some adversary, Replay_all_at at ->
    ignore
      (Engine.schedule_at t.engine ~at (fun () ->
           ignore
             (Resets_attack.Adversary.replay_all_in_order ~gap:message_gap
                adversary)))
  | Some adversary, Wedge_at at ->
    ignore
      (Engine.schedule_at t.engine ~at (fun () ->
           ignore (Resets_attack.Adversary.replay_latest adversary)))
  | Some adversary, Flood { start; gap } ->
    ignore
      (Engine.schedule_at t.engine ~at:start (fun () ->
           Resets_attack.Adversary.start_flood ~gap adversary))
