open Resets_sim
open Resets_persist

let retries = 3

(* Capped exponential backoff for recovery retries: the n-th retry
   waits 2^n disk latencies, capped at 8. *)
let backoff base n = Time.mul base (min (1 lsl n) 8)

type t = {
  engine : Engine.t;
  name : string;
  trace : Trace.t option;
  store : Store.t;
  key : string;
  policy : K_policy.t;
  retries : int;
  metrics : Metrics.t;
  mutable lst : int; (* last stored (or begun) value *)
  mutable durable : int; (* mirror of the disk's content *)
  mutable failing : bool; (* a SAVE failed; none succeeded since *)
  mutable pending : bool; (* a background SAVE is in flight *)
  mutable waking : bool; (* wakeup FETCH + SAVE in progress *)
  mutable ready : (unit -> unit) option;
      (* wakeup's on_ready, fired by whichever path brings us up *)
  mutable on_degrade : (unit -> unit) option;
  mutable last_gap_at : Time.t option;
      (* previous send (p) or fresh delivery (q) instant, feeding the
         policy's gap estimate *)
}

let create ?trace ~name ~store ~key ~policy ~retries ~metrics ~initial engine =
  {
    engine;
    name;
    trace;
    store;
    key;
    policy;
    retries;
    metrics;
    lst = initial;
    durable = initial;
    failing = false;
    pending = false;
    waking = false;
    ready = None;
    on_degrade = None;
    last_gap_at = None;
  }

let tell d event detail =
  match d.trace with
  | None -> ()
  | Some trace ->
    Trace.record trace ~time:(Engine.now d.engine) ~source:d.name ~event detail

(* Background SAVE: the endpoint keeps running while it is in flight.
   On failure the threshold rolls back (so progress re-triggers the
   write) and the endpoint's guard engages until a SAVE succeeds. *)
let save_now d value =
  let prev_lst = d.lst in
  d.lst <- value;
  d.pending <- true;
  Store.save d.store ~key:d.key ~value
    ~on_error:(fun () ->
      d.pending <- false;
      d.failing <- true;
      d.metrics.Metrics.save_failures <- d.metrics.Metrics.save_failures + 1;
      if d.lst = value then d.lst <- prev_lst;
      tell d "save.fail" (string_of_int value))
    ~on_complete:(fun () ->
      d.pending <- false;
      d.failing <- false;
      if value > d.durable then d.durable <- value;
      K_policy.note_durable d.policy)

let save_if_due d v = if v >= K_policy.current d.policy + d.lst then save_now d v

(* A no-op for static policies; pure arithmetic for adaptive ones. *)
let observe_gap d =
  let now = Engine.now d.engine in
  (match d.last_gap_at with
  | Some prev when Time.(prev <= now) ->
    K_policy.observe_send_gap d.policy (Time.diff now prev)
  | Some _ | None -> ());
  d.last_gap_at <- Some now

let crash d =
  d.waking <- false;
  d.failing <- false; (* RAM state: a crash forgets it *)
  d.pending <- false;
  d.ready <- None;
  d.last_gap_at <- None; (* downtime is not an inter-send gap *)
  Store.crash d.store

let fire_ready d =
  match d.ready with
  | None -> ()
  | Some f ->
    d.ready <- None;
    f ()

(* The store has exhausted its trust: record the degradation and hand
   the association to the re-establishment fallback (fresh SA, fresh
   counter, fresh keys) when one is wired. Without a handler the
   endpoint never comes up on state it cannot trust. *)
let degrade d =
  d.metrics.Metrics.degraded_reestablish <-
    d.metrics.Metrics.degraded_reestablish + 1;
  tell d "degrade" "falling back to re-establishment";
  match d.on_degrade with
  | None -> ()
  | Some f -> f ()

let wakeup d ~missing ~on_ready ~resume =
  d.waking <- true;
  (* [on_ready] is held aside so that whichever path finally brings
     the endpoint up (this wakeup or a degraded re-establishment) fires
     it exactly once. *)
  d.ready <- Some on_ready;
  let base = Store.base_latency d.store in
  (* FETCH with verification. A corrupt or stale record is retried
     with capped exponential backoff (transient-fault semantics: a
     re-read may serve the good copy), and after the budget the
     counter stops trusting the store and degrades. *)
  let rec attempt_fetch n =
    match Store.fetch_checked d.store ~key:d.key with
    | Store.Fetched v -> begin_leap_save v
    | Store.Missing -> begin_leap_save missing
    | Store.Corrupt | Store.Stale _ ->
      d.metrics.Metrics.fetch_failures <- d.metrics.Metrics.fetch_failures + 1;
      if n + 1 >= d.retries then degrade d
      else begin
        d.metrics.Metrics.save_retries <- d.metrics.Metrics.save_retries + 1;
        tell d "fetch.retry" (string_of_int (n + 1));
        ignore
          (Engine.schedule_after d.engine ~after:(backoff base n) (fun () ->
               if d.waking then attempt_fetch (n + 1)))
      end
  and begin_leap_save fetched =
    let v = fetched + K_policy.leap d.policy in
    tell d "fetch" (Printf.sprintf "fetched %d, leaping to %d" fetched v);
    attempt_save v 0
  (* The wakeup SAVE blocks: the endpoint resumes only once the leaped
     value is durable, so a second reset cannot fall below it. *)
  and attempt_save v n =
    Store.save d.store ~key:d.key ~value:v
      ~on_error:(fun () ->
        d.metrics.Metrics.save_failures <- d.metrics.Metrics.save_failures + 1;
        if n + 1 >= d.retries then degrade d
        else begin
          d.metrics.Metrics.save_retries <- d.metrics.Metrics.save_retries + 1;
          tell d "wakeup.save_retry" (string_of_int (n + 1));
          ignore
            (Engine.schedule_after d.engine ~after:(backoff base n) (fun () ->
                 if d.waking then attempt_save v (n + 1)))
        end)
      ~on_complete:(fun () ->
        d.lst <- v;
        d.durable <- v;
        d.failing <- false;
        d.waking <- false;
        resume v;
        fire_ready d)
  in
  attempt_fetch 0

(* A fresh SA's counter becomes the store's durable truth for this key
   (establishment state is durable by assumption), or a later reset
   would FETCH the dead sequence space's value and leap far from the
   fresh one. *)
let resync d v =
  Store.preload d.store ~key:d.key ~value:v;
  d.lst <- v;
  d.durable <- v;
  d.failing <- false;
  d.pending <- false;
  d.waking <- false

let made_durable d v =
  if v > d.durable then d.durable <- v;
  if v > d.lst then d.lst <- v;
  d.failing <- false

let write d v ~on_error ~on_complete =
  Store.save d.store ~key:d.key ~value:v ~on_error ~on_complete

let set_degrade_handler d f = d.on_degrade <- Some f
let budget d = d.retries
let failing d = d.failing
let pending d = d.pending
let waking d = d.waking
let last_begun d = d.lst
let horizon d = d.durable + K_policy.leap d.policy
let stored d = Store.fetch d.store ~key:d.key
