open Resets_util
open Resets_sim

(* The fault plan and the checksummed envelope now live in their own
   modules ({!Faults}, {!Envelope}) shared with the real File_store;
   this disk keeps rolling them in the historical order, so committed
   fault artifacts replay byte-identically. *)

module Faults = Faults

type envelope = Envelope.t = { value : int; gen : int; sum : int64 }

let checksum = Envelope.checksum
let verify = Envelope.verify

type pending = {
  id : int;
  keys : string list;
  handle : Engine.handle;
}

type t = {
  engine : Engine.t;
  trace : Trace.t option;
  name : string;
  base_latency : Time.t;
  jitter : (Time.t * Prng.t) option;
  durable : (string, envelope) Hashtbl.t;
  prev : (string, envelope) Hashtbl.t; (* last superseded version per key *)
  mutable faults : Faults.t option;
  mutable latency_observer : (Time.t -> unit) option;
  mutable pending : pending list;
  mutable next_latency : Time.t option;
  mutable next_id : int;
  mutable begun : int;
  mutable completed : int;
  mutable lost : int;
  mutable failed : int;
  mutable torn : int;
  mutable corrupt_served : int;
  mutable stale_served : int;
}

let make ?trace ?(name = "disk") ?faults ~latency ~jitter engine =
  {
    engine;
    trace;
    name;
    base_latency = latency;
    jitter;
    durable = Hashtbl.create 16;
    prev = Hashtbl.create 16;
    faults;
    latency_observer = None;
    pending = [];
    next_latency = None;
    next_id = 0;
    begun = 0;
    completed = 0;
    lost = 0;
    failed = 0;
    torn = 0;
    corrupt_served = 0;
    stale_served = 0;
  }

let create ?trace ?name ?faults ~latency engine =
  make ?trace ?name ?faults ~latency ~jitter:None engine

let create_jittered ?trace ?name ?faults ~latency ~jitter ~prng engine =
  make ?trace ?name ?faults ~latency ~jitter:(Some (jitter, prng)) engine

let set_faults t faults = t.faults <- Some faults

let set_latency_observer t f = t.latency_observer <- Some f

let sample_latency t =
  let base =
    match t.jitter with
    | None -> t.base_latency
    | Some (jitter, prng) ->
      let extra = Prng.int prng (Int64.to_int (Time.to_ns jitter) + 1) in
      Time.add t.base_latency (Time.of_ns (Int64.of_int extra))
  in
  (* Latency inflation is part of the fault plan (a disk degraded by the
     environment); factor 1 — every plan predating it — leaves the
     arithmetic untouched. *)
  match t.faults with
  | Some f when Faults.latency_factor f <> 1. ->
    Time.of_ns
      (Int64.of_float (Faults.latency_factor f *. Int64.to_float (Time.to_ns base)))
  | Some _ | None -> base

let latency_of_next_save t =
  match t.next_latency with
  | Some l -> l
  | None ->
    let l = sample_latency t in
    t.next_latency <- Some l;
    l

let tell t event detail =
  match t.trace with
  | None -> ()
  | Some trace ->
    Trace.record trace ~time:(Engine.now t.engine) ~source:t.name ~event detail

let drop_pending t key =
  let dropped, kept =
    List.partition (fun p -> List.exists (String.equal key) p.keys) t.pending
  in
  List.iter (fun p -> Engine.cancel p.handle) dropped;
  t.pending <- kept;
  List.length dropped

let install t ~key ~value =
  let gen =
    match Hashtbl.find_opt t.durable key with
    | Some e ->
      Hashtbl.replace t.prev key e;
      e.gen + 1
    | None -> 1
  in
  Hashtbl.replace t.durable key { value; gen; sum = checksum ~key ~value ~gen }

(* One PRNG roll per begun write, drawn at begin time in write order so
   the fault pattern is a pure function of the plan's seed. *)
let roll_write t ~n_entries =
  match t.faults with
  | None -> `Ok
  | Some f -> (Faults.roll_write f ~n_entries :> [ `Ok | `Fail | `Torn of int ])

(* Begin one write covering [entries]. All keys become durable together
   when the single completion event fires; a crash before then loses the
   whole write. Shared by [save] (one entry) and [save_snapshot]. A
   fault plan can make the write fail transiently (nothing durable,
   [on_error] fires after the disk latency) or tear a multi-entry
   snapshot (a strict prefix becomes durable, still reported failed). *)
let begin_write t ~entries ~label ~on_complete ~on_error =
  let superseded =
    List.fold_left (fun acc (key, _) -> acc + drop_pending t key) 0 entries
  in
  if superseded > 0 then
    tell t "save.supersede" (Printf.sprintf "%s (%d dropped)" label superseded);
  let latency = latency_of_next_save t in
  t.next_latency <- None;
  (* Observed at begin time, not completion: under supersede pressure a
     too-small K means writes are cancelled before they ever complete,
     and a completion-based observer would starve exactly when the
     latency signal matters most. *)
  (match t.latency_observer with None -> () | Some f -> f latency);
  t.begun <- t.begun + 1;
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let outcome = roll_write t ~n_entries:(List.length entries) in
  tell t "save.begin" label;
  let handle =
    Engine.schedule_after t.engine ~after:latency (fun () ->
        t.pending <- List.filter (fun p -> p.id <> id) t.pending;
        match outcome with
        | `Ok ->
          List.iter (fun (key, value) -> install t ~key ~value) entries;
          t.completed <- t.completed + 1;
          tell t "save.done" label;
          on_complete ()
        | `Fail ->
          t.failed <- t.failed + 1;
          tell t "save.fail" label;
          on_error ()
        | `Torn prefix ->
          List.iteri
            (fun i (key, value) -> if i < prefix then install t ~key ~value)
            entries;
          t.failed <- t.failed + 1;
          t.torn <- t.torn + 1;
          tell t "save.torn" (Printf.sprintf "%s (%d durable)" label prefix);
          on_error ())
  in
  t.pending <- { id; keys = List.map fst entries; handle } :: t.pending

let save ?(on_error = fun () -> ()) t ~key ~value ~on_complete =
  (* A newer save for the same key supersedes an in-flight one: only the
     most recent write can become durable. *)
  begin_write t ~entries:[ (key, value) ]
    ~label:(Printf.sprintf "%s := %d" key value)
    ~on_complete ~on_error

let save_snapshot ?(on_error = fun () -> ()) t ~entries ~on_complete =
  if Array.length entries = 0 then
    invalid_arg "Sim_disk.save_snapshot: empty snapshot";
  begin_write t
    ~entries:(Array.to_list entries)
    ~label:(Printf.sprintf "snapshot[%d keys]" (Array.length entries))
    ~on_complete ~on_error

let preload t ~key ~value =
  (* Preloaded state is THE durable truth for the key (established
     state is durable by assumption), so an in-flight write from an
     older sequence space must not land on top of it. *)
  ignore (drop_pending t key);
  install t ~key ~value

let remove t ~key =
  ignore (drop_pending t key);
  Hashtbl.remove t.durable key;
  Hashtbl.remove t.prev key

let key_count t = Hashtbl.length t.durable

let fetch t ~key =
  Option.map (fun e -> e.value) (Hashtbl.find_opt t.durable key)

let fetch_checked t ~key =
  match Hashtbl.find_opt t.durable key with
  | None -> Store.Missing
  | Some latest ->
    let served =
      match t.faults with
      | None -> latest
      | Some f -> (
        match Faults.roll_read f with
        | `Corrupt_bit bit -> { latest with value = latest.value lxor (1 lsl bit) }
        | `Stale -> (
          match Hashtbl.find_opt t.prev key with
          | Some p -> p
          | None -> latest)
        | `Ok -> latest)
    in
    if not (verify ~key served) then begin
      t.corrupt_served <- t.corrupt_served + 1;
      tell t "fetch.corrupt" key;
      Store.Corrupt
    end
    else if served.gen < latest.gen then begin
      t.stale_served <- t.stale_served + 1;
      tell t "fetch.stale"
        (Printf.sprintf "%s gen %d < %d" key served.gen latest.gen);
      Store.Stale served.value
    end
    else Store.Fetched served.value

let crash t =
  let n = List.length t.pending in
  List.iter (fun p -> Engine.cancel p.handle) t.pending;
  t.pending <- [];
  t.lost <- t.lost + n;
  if n > 0 then tell t "crash.lost_writes" (string_of_int n) else tell t "crash" ""

let in_flight t = List.length t.pending

let base_latency t = t.base_latency

let saves_begun t = t.begun
let saves_completed t = t.completed
let saves_lost t = t.lost
let saves_failed t = t.failed
let snapshots_torn t = t.torn
let fetches_corrupt t = t.corrupt_served
let fetches_stale t = t.stale_served

let store t =
  {
    Store.label = t.name;
    save = (fun ~key ~value ~on_error ~on_complete ->
      save ~on_error t ~key ~value ~on_complete);
    fetch = (fun ~key -> fetch t ~key);
    fetch_checked = (fun ~key -> fetch_checked t ~key);
    preload = (fun ~key ~value -> preload t ~key ~value);
    crash = (fun () -> crash t);
    base_latency = t.base_latency;
  }
