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
  persistence : persistence option;
  mutable lst : int; (* last stored (or begun) sequence number *)
  mutable durable : int; (* mirror of the disk's content *)
  mutable save_failing : bool; (* a SAVE failed; none succeeded since *)
  mutable save_pending : bool; (* a SAVE is in flight *)
  mutable pending_ready : (unit -> unit) option;
      (* wakeup's on_ready, fired by whichever path brings us up *)
  mutable degrade : (unit -> unit) option;
  mutable down : bool;
  mutable recovering : bool; (* wakeup FETCH+SAVE in progress *)
  mutable running : bool;
  mutable timer : Engine.handle option;
  mutable last_send_at : Time.t option;
      (* previous send instant, feeding the policy's gap estimate *)
}


let default_payload ~seq = "message-" ^ string_of_int seq

let create ?(name = "p") ?trace ?(payload = default_payload)
    ?(framing = Packet.Seq64) ?(preload_store = true) ~sa ~send ~traffic
    ~metrics ~persistence engine =
  if preload_store then
    Option.iter
      (fun p -> Store.preload p.store ~key:p.key ~value:(Sa.send_seq sa))
      persistence;
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
    persistence;
    lst = Sa.send_seq sa;
    durable = Sa.send_seq sa;
    save_failing = false;
    save_pending = false;
    pending_ready = None;
    degrade = None;
    down = false;
    recovering = false;
    running = false;
    timer = None;
    last_send_at = None;
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

(* Background SAVE shared by the count and timer triggers. On failure
   the threshold rolls back (so progress re-triggers the write) and the
   stall guard in the send loop engages until a SAVE succeeds. *)
let begin_background_save t (p : persistence) ~value ~prev_lst =
  t.save_pending <- true;
  Store.save p.store ~key:p.key ~value
    ~on_error:(fun () ->
      t.save_pending <- false;
      t.save_failing <- true;
      t.metrics.Metrics.save_failures <- t.metrics.Metrics.save_failures + 1;
      if t.lst = value then t.lst <- prev_lst;
      tell t "save.fail" (string_of_int value))
    ~on_complete:(fun () ->
      t.save_pending <- false;
      t.save_failing <- false;
      if value > t.durable then t.durable <- value;
      K_policy.note_durable p.policy)

let maybe_begin_periodic_save t =
  match t.persistence with
  | None -> ()
  | Some ({ trigger = On_count; _ } as p) ->
    let s = Sa.send_seq t.sa in
    if s >= K_policy.current p.policy + t.lst then begin
      let prev_lst = t.lst in
      t.lst <- s;
      (* Background SAVE: sending continues while it is in flight. *)
      begin_background_save t p ~value:s ~prev_lst
    end
  | Some { trigger = On_timer _; _ } -> () (* the timer loop saves *)

(* Timer-triggered SAVE (the ablation the paper argues against): write
   the current number on a fixed cadence, whatever progress was made. *)
let start_save_timer t =
  match t.persistence with
  | None | Some { trigger = On_count; _ } -> ()
  | Some ({ trigger = On_timer interval; _ } as p) ->
    let rec tick () =
      if not t.down then begin
        let s = Sa.send_seq t.sa in
        if s <> t.lst then begin
          let prev_lst = t.lst in
          t.lst <- s;
          begin_background_save t p ~value:s ~prev_lst
        end
      end;
      ignore (Engine.schedule_after t.engine ~after:interval tick)
    in
    ignore (Engine.schedule_after t.engine ~after:interval tick)

let send_one t =
  (* Feed the actual inter-send gap to the policy (a no-op for static
     policies; pure arithmetic for adaptive ones). *)
  (match t.persistence with
  | None -> ()
  | Some p ->
    let now = Engine.now t.engine in
    (match t.last_send_at with
    | Some prev when Time.(prev <= now) ->
      K_policy.observe_send_gap p.policy (Time.diff now prev)
    | Some _ | None -> ());
    t.last_send_at <- Some now);
  let seq = Sa.next_send_seq t.sa in
  let payload = t.payload ~seq in
  let wire =
    match t.framing with
    | Packet.Seq64 -> Esp.encap ~sa:t.sa.Sa.params ~seq ~payload
    | Packet.Esn32 -> Esp.encap_esn ~sa:t.sa.Sa.params ~seq ~payload
  in
  t.send (Packet.fresh wire);
  t.metrics.Metrics.sent <- t.metrics.Metrics.sent + 1;
  maybe_begin_periodic_save t

(* Stall guard: while SAVEs are failing, sending past [durable + leap]
   would mean a post-crash resume at [durable + leap] re-issues already
   used numbers — the reuse the paper's leap rule exists to prevent. A
   failing sender therefore trades throughput for safety and holds its
   send slot; fault-free runs never stall ([save_failing] is only ever
   set by a store fault). *)
let stalled t =
  match t.persistence with
  | None -> false
  | Some p ->
    t.save_failing && Sa.send_seq t.sa >= t.durable + K_policy.leap p.policy

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
               (match t.persistence with
               | Some p when not t.save_pending ->
                 let s = Sa.send_seq t.sa in
                 let prev_lst = t.lst in
                 t.lst <- s;
                 tell t "stall" (string_of_int s);
                 begin_background_save t p ~value:s ~prev_lst
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
    t.recovering <- false;
    t.save_failing <- false; (* RAM state: a crash forgets it *)
    t.save_pending <- false;
    t.pending_ready <- None;
    t.last_send_at <- None; (* downtime is not an inter-send gap *)
    cancel_timer t;
    Option.iter (fun p -> Store.crash p.store) t.persistence;
    t.metrics.Metrics.p_resets <- t.metrics.Metrics.p_resets + 1;
    tell t "reset" ""
  end

let resume t ~new_seq ~on_ready =
  let old_next = Sa.send_seq t.sa in
  if new_seq > old_next then
    t.metrics.Metrics.skipped_seqnos <-
      t.metrics.Metrics.skipped_seqnos + (new_seq - old_next)
  else
    t.metrics.Metrics.reused_seqnos <-
      t.metrics.Metrics.reused_seqnos + (old_next - new_seq);
  Sa.set_send_seq t.sa new_seq;
  t.lst <- new_seq;
  t.durable <- new_seq;
  t.save_failing <- false;
  t.down <- false;
  t.recovering <- false;
  tell t "wakeup" (Printf.sprintf "resume at %d" new_seq);
  if t.running then schedule_next t;
  on_ready ()

(* Capped exponential backoff for recovery retries: the n-th retry
   waits 2^n disk latencies, capped at 8. *)
let backoff_delay base n = Time.mul base (min (1 lsl n) 8)

let fire_ready t =
  match t.pending_ready with
  | None -> ()
  | Some f ->
    t.pending_ready <- None;
    f ()

(* Retry budget exhausted: stop trusting the store and hand the
   association to the re-establishment fallback when one is wired. *)
let degrade_now t =
  t.metrics.Metrics.degraded_reestablish <-
    t.metrics.Metrics.degraded_reestablish + 1;
  tell t "degrade" "falling back to re-establishment";
  match t.degrade with
  | None -> ()
  | Some f -> f ()

let wakeup t ?(on_ready = fun () -> ()) () =
  if not t.down then invalid_arg "Sender.wakeup: not down";
  if t.recovering then () (* recovery already in progress *)
  else begin
    t.recovering <- true;
    match t.persistence with
  | None ->
    (* Volatile baseline: Section 3's process p restarts at 1. *)
    resume t ~new_seq:1 ~on_ready
  | Some p ->
    (* [on_ready] is held aside so that whichever path finally brings
       the sender up — this wakeup or a degraded re-establishment's
       [resume_fresh] — fires it exactly once. *)
    t.pending_ready <- Some on_ready;
    let base = Store.base_latency p.store in
    (* FETCH with verification, retried with capped exponential backoff
       on a corrupt or stale record; after the budget the SA degrades
       rather than resume from state it cannot trust. *)
    let rec attempt_fetch n =
      match Store.fetch_checked p.store ~key:p.key with
      | Store.Fetched v -> begin_leap_save v
      | Store.Missing -> begin_leap_save 1
      | Store.Corrupt | Store.Stale _ ->
        t.metrics.Metrics.fetch_failures <- t.metrics.Metrics.fetch_failures + 1;
        if n + 1 >= p.retries then degrade_now t
        else begin
          t.metrics.Metrics.save_retries <- t.metrics.Metrics.save_retries + 1;
          tell t "fetch.retry" (string_of_int (n + 1));
          ignore
            (Engine.schedule_after t.engine ~after:(backoff_delay base n)
               (fun () -> if t.down && t.recovering then attempt_fetch (n + 1)))
        end
    and begin_leap_save fetched =
      let new_seq = fetched + K_policy.leap p.policy in
      tell t "fetch" (Printf.sprintf "fetched %d, leaping to %d" fetched new_seq);
      attempt_save new_seq 0
    (* The wakeup SAVE blocks: p sends nothing until it is durable, so
       a second reset cannot re-issue these numbers. *)
    and attempt_save new_seq n =
      Store.save p.store ~key:p.key ~value:new_seq
        ~on_error:(fun () ->
          t.metrics.Metrics.save_failures <- t.metrics.Metrics.save_failures + 1;
          if n + 1 >= p.retries then degrade_now t
          else begin
            t.metrics.Metrics.save_retries <- t.metrics.Metrics.save_retries + 1;
            tell t "wakeup.save_retry" (string_of_int (n + 1));
            ignore
              (Engine.schedule_after t.engine ~after:(backoff_delay base n)
                 (fun () ->
                   if t.down && t.recovering then attempt_save new_seq (n + 1)))
          end)
        ~on_complete:(fun () -> resume t ~new_seq ~on_ready:(fun () -> fire_ready t))
    in
    attempt_fetch 0
  end

(* A fresh SA was installed (degraded re-establishment): its counter
   becomes the store's durable truth for this key — establishment state
   is durable by assumption — or a later reset would FETCH the dead
   sequence space's counter and leap thousands of numbers. *)
let resync_store t =
  (match t.persistence with
  | None -> ()
  | Some p -> Store.preload p.store ~key:p.key ~value:(Sa.send_seq t.sa));
  t.lst <- Sa.send_seq t.sa;
  t.durable <- Sa.send_seq t.sa;
  t.save_failing <- false;
  t.save_pending <- false

(* Come up on a freshly installed SA (degraded re-establishment): the
   new sequence space starts wherever the fresh SA starts, so there is
   nothing to fetch and no skip/reuse to account. *)
let resume_fresh t =
  if t.down then begin
    resync_store t;
    t.down <- false;
    t.recovering <- false;
    tell t "wakeup" (Printf.sprintf "fresh SA at %d" (Sa.send_seq t.sa));
    if t.running then schedule_next t;
    fire_ready t
  end

let set_degrade_handler t f = t.degrade <- Some f

let is_down t = t.down
let is_recovering t = t.down && t.recovering

let next_seq t = Sa.send_seq t.sa

let last_stored t =
  match t.persistence with
  | None -> None
  | Some p -> Store.fetch p.store ~key:p.key

let install_sa t sa = t.sa <- sa

let sa t = t.sa
