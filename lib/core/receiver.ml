open Resets_sim
open Resets_persist
open Resets_ipsec

type persistence = {
  store : Store.t;
  key : string;
  policy : K_policy.t;
  robust : bool;
  wakeup_buffer : bool;
  retries : int;
}

type t = {
  engine : Engine.t;
  name : string;
  trace : Trace.t option;
  mutable sa : Sa.t;
  metrics : Metrics.t;
  durable : Durable.t option; (* None: the volatile process *)
  robust : bool;
  wakeup_buffer : bool;
  mutable down : bool;
  mutable wakeup_buffer_q : Packet.t list; (* newest first *)
  mutable catchup_buffer : Packet.t list; (* newest first *)
  mutable catchup_saving : bool;
  mutable deliver_hooks : (seq:int -> payload:Resets_util.Slice.t -> unit) list;
}


let create ?(name = "q") ?trace ?(preload_store = true) ~sa ~metrics
    ~persistence engine =
  let durable, robust, wakeup_buffer =
    match persistence with
    | None -> (None, false, false)
    | Some p ->
      let initial = Replay_window.right_edge sa.Sa.window in
      if preload_store then Store.preload p.store ~key:p.key ~value:initial;
      ( Some
          (Durable.create ?trace ~name ~store:p.store ~key:p.key
             ~policy:p.policy ~retries:p.retries ~metrics ~initial engine),
        p.robust,
        p.wakeup_buffer )
  in
  {
    engine;
    name;
    trace;
    sa;
    metrics;
    durable;
    robust;
    wakeup_buffer;
    down = false;
    wakeup_buffer_q = [];
    catchup_buffer = [];
    catchup_saving = false;
    deliver_hooks = [];
  }

let tell t event detail =
  match t.trace with
  | None -> ()
  | Some trace ->
    Trace.record trace ~time:(Engine.now t.engine) ~source:t.name ~event detail

let on_deliver t hook = t.deliver_hooks <- t.deliver_hooks @ [ hook ]

let window t = t.sa.Sa.window

let waking t = match t.durable with None -> false | Some d -> Durable.waking d

let deliver t ~seq ~payload ~replayed =
  Sa.note_received t.sa;
  Metrics.record_delivery t.metrics ~seq ~replayed;
  (* Fresh arrivals measure the receiver's view of the inter-send gap
     (a no-op for static policies). *)
  (if not replayed then
     match t.durable with None -> () | Some d -> Durable.observe_gap d);
  List.iter (fun hook -> hook ~seq ~payload) t.deliver_hooks

(* A frame the receiver holds past the call that handed it over is
   copied: it may be a view of the caller's buffer (an rx-arena slot,
   which the next receive batch overwrites). *)
let keep ~replayed frame ~off ~len =
  { Packet.wire = String.sub frame off len; replayed }

(* Process the [len]-byte frame at [off] in [frame] through decap +
   window. In robust mode a frame that would slide the edge past the
   durable horizon is kept until an urgent SAVE makes it durable. *)
let rec process t ~replayed frame ~off ~len =
  match
    Esp.decap_range ~sa:t.sa.Sa.params
      ~edge:(Replay_window.right_edge (window t))
      frame ~off ~len
  with
  | Error _ -> t.metrics.Metrics.bad_icv <- t.metrics.Metrics.bad_icv + 1
  | Ok (seq, payload) ->
    if replayed then
      t.metrics.Metrics.arrived_replayed <- t.metrics.Metrics.arrived_replayed + 1
    else t.metrics.Metrics.arrived_fresh <- t.metrics.Metrics.arrived_fresh + 1;
    let prospective = max seq (Replay_window.right_edge (window t)) in
    (* [robust] opts into the bounded-slide rule permanently; a failing
       SAVE engages it for everyone — while durability lags, letting the
       edge run past [durable + leap] would make a post-crash resume
       edge fall below the old edge, re-opening the replay hole. *)
    let needs_catchup =
      match t.durable with
      | Some d ->
        (t.robust || Durable.failing d) && prospective > Durable.horizon d
      | None -> false
    in
    if needs_catchup then
      defer t (keep ~replayed frame ~off ~len) ~edge:prospective
    else begin
      let verdict = Replay_window.admit (window t) seq in
      if Option.is_some t.trace then
        tell t "rcv"
          (Printf.sprintf "#%d %s" seq (Replay_window.verdict_to_string verdict));
      if Replay_window.verdict_accepts verdict then begin
        let displacement = Replay_window.right_edge (window t) - seq in
        if displacement > t.metrics.Metrics.max_displacement then
          t.metrics.Metrics.max_displacement <- displacement;
        deliver t ~seq ~payload ~replayed;
        match t.durable with
        | None -> ()
        | Some d -> Durable.save_if_due d (Replay_window.right_edge (window t))
      end
      else Metrics.record_rejection t.metrics ~seq ~replayed
    end

and process_kept t (pkt : Packet.t) =
  process t ~replayed:pkt.replayed pkt.wire ~off:0 ~len:(String.length pkt.wire)

(* Robust mode: hold the packet and make the prospective edge durable
   before letting the window slide to it. *)
and defer t pkt ~edge =
  t.catchup_buffer <- pkt :: t.catchup_buffer;
  match t.durable with
  | None -> assert false
  | Some d ->
    if not t.catchup_saving then begin
      t.catchup_saving <- true;
      tell t "catchup.begin" (string_of_int edge);
      catchup_save t d ~edge ~attempt:0
    end

and catchup_save t d ~edge ~attempt =
  Durable.write d edge
    ~on_error:(fun () ->
      t.metrics.Metrics.save_failures <- t.metrics.Metrics.save_failures + 1;
      if attempt + 1 >= Durable.budget d then begin
        (* Retry budget exhausted. The held packets stay buffered and
           the next arrival re-arms the save with a fresh budget — or,
           when a degrade handler is wired, the association abandons the
           store and re-establishes. *)
        t.catchup_saving <- false;
        tell t "catchup.give_up" (string_of_int edge);
        Durable.degrade d
      end
      else begin
        t.metrics.Metrics.save_retries <- t.metrics.Metrics.save_retries + 1;
        tell t "catchup.retry" (string_of_int edge);
        catchup_save t d ~edge ~attempt:(attempt + 1)
      end)
    ~on_complete:(fun () ->
      Durable.made_durable d edge;
      t.catchup_saving <- false;
      tell t "catchup.done" (string_of_int edge);
      let held = List.rev t.catchup_buffer in
      t.catchup_buffer <- [];
      if not t.down then List.iter (process_kept t) held)

let set_degrade_handler t f =
  match t.durable with
  | None -> ()
  | Some d ->
    (* A degraded association drops what the bounded slide held back:
       the fresh SA starts a fresh window. *)
    Durable.set_degrade_handler d (fun () ->
        t.catchup_buffer <- [];
        t.catchup_saving <- false;
        f ())

let receive t ~replayed frame ~off ~len =
  if not t.down then process t ~replayed frame ~off ~len
  else if t.wakeup_buffer && waking t then begin
    t.metrics.Metrics.buffered_during_wakeup <-
      t.metrics.Metrics.buffered_during_wakeup + 1;
    t.wakeup_buffer_q <- keep ~replayed frame ~off ~len :: t.wakeup_buffer_q
  end
  else
    (* The host is off (or waking without a buffer): arrivals are lost,
       like any packet sent to a dead machine. *)
    t.metrics.Metrics.dropped_host_down <- t.metrics.Metrics.dropped_host_down + 1

let on_packet t (pkt : Packet.t) =
  receive t ~replayed:pkt.replayed pkt.wire ~off:0 ~len:(String.length pkt.wire)

let on_frame t (s : Resets_util.Slice.t) =
  receive t ~replayed:false (Bytes.unsafe_to_string s.base) ~off:s.off
    ~len:s.len

let reset t =
  (* A reset during a wakeup aborts it; one while down is a no-op. *)
  if (not t.down) || waking t then begin
    t.down <- true;
    t.wakeup_buffer_q <- [];
    t.catchup_buffer <- [];
    t.catchup_saving <- false;
    (match t.durable with None -> () | Some d -> Durable.crash d);
    t.metrics.Metrics.q_resets <- t.metrics.Metrics.q_resets + 1;
    tell t "reset" ""
  end

let drain_wakeup_buffer t =
  let held = List.rev t.wakeup_buffer_q in
  t.wakeup_buffer_q <- [];
  List.iter (process_kept t) held

let wakeup t ?(on_ready = fun () -> ()) () =
  if not t.down then invalid_arg "Receiver.wakeup: not down";
  match t.durable with
  | Some d when Durable.waking d -> () (* recovery already in progress *)
  | Some d ->
    Durable.wakeup d ~missing:0 ~on_ready ~resume:(fun edge ->
        Replay_window.resume_at (window t) edge;
        t.down <- false;
        tell t "wakeup" (Printf.sprintf "resume at edge %d" edge);
        drain_wakeup_buffer t)
  | None ->
    (* Volatile baseline: Section 3's process q restarts with r = 0. *)
    Replay_window.volatile_reset (window t);
    t.down <- false;
    tell t "wakeup" "volatile, r=0";
    on_ready ()

let resync_store t =
  match t.durable with
  | None -> ()
  | Some d -> Durable.resync d (Replay_window.right_edge (window t))

(* Host-managed recovery: the edge was determined (and made durable)
   externally — e.g. by a coalesced snapshot write or a fresh handshake —
   so skip the per-receiver FETCH + blocking SAVE and come up at once. *)
let resume_at t ~edge =
  if not t.down then invalid_arg "Receiver.resume_at: not down";
  Replay_window.resume_at (window t) edge;
  resync_store t;
  t.down <- false;
  tell t "wakeup" (Printf.sprintf "resume at edge %d (host-managed)" edge);
  drain_wakeup_buffer t;
  match t.durable with None -> () | Some d -> Durable.fire_ready d

let is_down t = t.down
let is_recovering = waking

let right_edge t = Replay_window.right_edge (window t)

let last_stored t =
  match t.durable with None -> None | Some d -> Durable.stored d

let install_sa t sa =
  t.sa <- sa;
  Metrics.bump_epoch t.metrics

let sa t = t.sa
