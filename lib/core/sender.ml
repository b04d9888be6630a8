open Resets_sim
open Resets_persist
open Resets_ipsec

type trigger =
  | On_count
  | On_timer of Time.t

type persistence = {
  store : Store.t;
  key : string;
  policy : K_policy.t;
  trigger : trigger;
  retries : int;
}

type t = {
  engine : Engine.t;
  name : string;
  trace : Trace.t option;
  payload : seq:int -> string;
  framing : Packet.framing;
  mutable sa : Sa.t;
  send : Packet.t -> unit;
  traffic : Resets_workload.Traffic.t;
  metrics : Metrics.t;
  durable : Durable.t option; (* None: the volatile process *)
  trigger : trigger;
  mutable down : bool;
  mutable running : bool;
  mutable timer : Engine.handle option;
}


let default_payload ~seq = "message-" ^ string_of_int seq

let create ?(name = "p") ?trace ?(payload = default_payload)
    ?(framing = Packet.Seq64) ?(preload_store = true) ~sa ~send ~traffic
    ~metrics ~persistence engine =
  let durable, trigger =
    match persistence with
    | None -> (None, On_count)
    | Some p ->
      let initial = Sa.send_seq sa in
      if preload_store then Store.preload p.store ~key:p.key ~value:initial;
      ( Some
          (Durable.create ?trace ~name ~store:p.store ~key:p.key
             ~policy:p.policy ~retries:p.retries ~metrics ~initial engine),
        p.trigger )
  in
  {
    engine;
    name;
    trace;
    payload;
    framing;
    sa;
    send;
    traffic;
    metrics;
    durable;
    trigger;
    down = false;
    running = false;
    timer = None;
  }

let tell t event detail =
  match t.trace with
  | None -> ()
  | Some trace ->
    Trace.record trace ~time:(Engine.now t.engine) ~source:t.name ~event detail

let cancel_timer t =
  match t.timer with
  | None -> ()
  | Some h ->
    Engine.cancel h;
    t.timer <- None

(* Timer-triggered SAVE (the ablation the paper argues against): write
   the current number on a fixed cadence, whatever progress was made. *)
let start_save_timer t =
  match (t.durable, t.trigger) with
  | None, _ | Some _, On_count -> ()
  | Some d, On_timer interval ->
    let rec tick () =
      if not t.down then begin
        let s = Sa.send_seq t.sa in
        if s <> Durable.last_begun d then Durable.save_now d s
      end;
      ignore (Engine.schedule_after t.engine ~after:interval tick)
    in
    ignore (Engine.schedule_after t.engine ~after:interval tick)

let send_one t =
  (* Feed the actual inter-send gap to the policy. *)
  (match t.durable with None -> () | Some d -> Durable.observe_gap d);
  let seq = Sa.next_send_seq t.sa in
  let payload = t.payload ~seq in
  let wire =
    match t.framing with
    | Packet.Seq64 -> Esp.encap ~sa:t.sa.Sa.params ~seq ~payload
    | Packet.Esn32 -> Esp.encap_esn ~sa:t.sa.Sa.params ~seq ~payload
  in
  t.send (Packet.fresh wire);
  t.metrics.Metrics.sent <- t.metrics.Metrics.sent + 1;
  (* Background SAVE: sending continues while it is in flight. *)
  match (t.durable, t.trigger) with
  | Some d, On_count -> Durable.save_if_due d (Sa.send_seq t.sa)
  | Some _, On_timer _ | None, _ -> () (* the timer loop saves *)

(* Stall guard: while SAVEs are failing, sending past [durable + leap]
   would mean a post-crash resume at [durable + leap] re-issues already
   used numbers — the reuse the paper's leap rule exists to prevent. A
   failing sender therefore trades throughput for safety and holds its
   send slot; fault-free runs never stall (only a store fault makes
   SAVEs fail). *)
let stalled t =
  match t.durable with
  | None -> false
  | Some d -> Durable.failing d && Sa.send_seq t.sa >= Durable.horizon d

let rec schedule_next t =
  let gap = Resets_workload.Traffic.next_gap t.traffic in
  t.timer <-
    Some
      (Engine.schedule_after t.engine ~after:gap (fun () ->
           t.timer <- None;
           if t.running && not t.down then
             if stalled t then begin
               t.metrics.Metrics.sends_stalled <-
                 t.metrics.Metrics.sends_stalled + 1;
               (* Nothing else will trigger the retry while we hold the
                  send loop, so re-issue the failed SAVE ourselves. *)
               (match t.durable with
               | Some d when not (Durable.pending d) ->
                 let s = Sa.send_seq t.sa in
                 tell t "stall" (string_of_int s);
                 Durable.save_now d s
               | Some _ | None -> ());
               schedule_next t
             end
             else begin
               send_one t;
               schedule_next t
             end))

let start t =
  if t.running then invalid_arg "Sender.start: already started";
  t.running <- true;
  start_save_timer t;
  schedule_next t

let stop t =
  t.running <- false;
  cancel_timer t

let reset t =
  if not t.down then begin
    t.down <- true;
    cancel_timer t;
    (match t.durable with None -> () | Some d -> Durable.crash d);
    t.metrics.Metrics.p_resets <- t.metrics.Metrics.p_resets + 1;
    tell t "reset" ""
  end

let waking t = match t.durable with None -> false | Some d -> Durable.waking d

let resume t ~new_seq =
  let old_next = Sa.send_seq t.sa in
  if new_seq > old_next then
    t.metrics.Metrics.skipped_seqnos <-
      t.metrics.Metrics.skipped_seqnos + (new_seq - old_next)
  else
    t.metrics.Metrics.reused_seqnos <-
      t.metrics.Metrics.reused_seqnos + (old_next - new_seq);
  Sa.set_send_seq t.sa new_seq;
  t.down <- false;
  tell t "wakeup" (Printf.sprintf "resume at %d" new_seq);
  if t.running then schedule_next t

let wakeup t ?(on_ready = fun () -> ()) () =
  if not t.down then invalid_arg "Sender.wakeup: not down";
  match t.durable with
  | Some d when Durable.waking d -> () (* recovery already in progress *)
  | Some d ->
    Durable.wakeup d ~missing:1 ~on_ready ~resume:(fun new_seq ->
        resume t ~new_seq)
  | None ->
    (* Volatile baseline: Section 3's process p restarts at 1. *)
    resume t ~new_seq:1;
    on_ready ()

let resync_store t =
  match t.durable with
  | None -> ()
  | Some d -> Durable.resync d (Sa.send_seq t.sa)

(* Come up on a freshly installed SA (degraded re-establishment): the
   new sequence space starts wherever the fresh SA starts, so there is
   nothing to fetch and no skip/reuse to account. *)
let resume_fresh t =
  if t.down then begin
    resync_store t;
    t.down <- false;
    tell t "wakeup" (Printf.sprintf "fresh SA at %d" (Sa.send_seq t.sa));
    if t.running then schedule_next t;
    match t.durable with None -> () | Some d -> Durable.fire_ready d
  end

let set_degrade_handler t f =
  match t.durable with None -> () | Some d -> Durable.set_degrade_handler d f

let is_down t = t.down
let is_recovering = waking

let next_seq t = Sa.send_seq t.sa

let last_stored t =
  match t.durable with None -> None | Some d -> Durable.stored d

let install_sa t sa = t.sa <- sa

let sa t = t.sa
