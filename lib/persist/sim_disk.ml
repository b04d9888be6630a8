open Resets_sim

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
  durable : (string, Envelope.t) Hashtbl.t;
  prev : (string, Envelope.t) Hashtbl.t; (* last superseded version per key *)
  mutable faults : Faults.t option;
  mutable latency_observer : (Time.t -> unit) option;
  mutable pending : pending list;
  mutable next_id : int;
  tally : Store.tally;
}

let create ?trace ?(name = "disk") ?faults ~latency engine =
  {
    engine;
    trace;
    name;
    base_latency = latency;
    durable = Hashtbl.create 16;
    prev = Hashtbl.create 16;
    faults;
    latency_observer = None;
    pending = [];
    next_id = 0;
    tally = Store.tally ();
  }

let set_faults t faults = t.faults <- Some faults

let set_latency_observer t f = t.latency_observer <- Some f

(* Latency inflation is part of the fault plan (a disk degraded by the
   environment); factor 1 — every plan predating it — leaves the
   arithmetic untouched. *)
let write_latency t =
  match t.faults with
  | Some f when Faults.latency_factor f <> 1. ->
    Time.of_ns
      (Int64.of_float
         (Faults.latency_factor f *. Int64.to_float (Time.to_ns t.base_latency)))
  | Some _ | None -> t.base_latency

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
  Hashtbl.replace t.durable key (Envelope.make ~key ~value ~gen)

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
  let latency = write_latency t in
  (* Observed at begin time, not completion: under supersede pressure a
     too-small K means writes are cancelled before they ever complete,
     and a completion-based observer would starve exactly when the
     latency signal matters most. *)
  (match t.latency_observer with None -> () | Some f -> f latency);
  t.tally.begun <- t.tally.begun + 1;
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  (* One roll per begun write, drawn at begin time in write order, so
     the fault pattern is a pure function of the plan's seed. *)
  let outcome =
    match t.faults with
    | None -> `Ok
    | Some f -> Faults.roll_write f ~n_entries:(List.length entries)
  in
  tell t "save.begin" label;
  let handle =
    Engine.schedule_after t.engine ~after:latency (fun () ->
        t.pending <- List.filter (fun p -> p.id <> id) t.pending;
        List.iter
          (fun (key, value) -> install t ~key ~value)
          (Faults.landed outcome entries);
        Faults.count_write t.tally outcome;
        match outcome with
        | `Ok ->
          tell t "save.done" label;
          on_complete ()
        | `Fail ->
          tell t "save.fail" label;
          on_error ()
        | `Torn prefix ->
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
  Option.map (fun (e : Envelope.t) -> e.value) (Hashtbl.find_opt t.durable key)

let fetch_checked t ~key =
  match Hashtbl.find_opt t.durable key with
  | None -> Store.Missing
  | Some latest ->
    let verdict =
      Faults.serve t.faults t.tally ~key ~latest ~prev:(fun () ->
          Hashtbl.find_opt t.prev key)
    in
    (match verdict with
    | Store.Corrupt -> tell t "fetch.corrupt" key
    | Store.Stale _ ->
      tell t "fetch.stale"
        (Printf.sprintf "%s gen %d < %d" key (Hashtbl.find t.prev key).gen
           latest.gen)
    | Store.Fetched _ | Store.Missing -> ());
    verdict

let crash t =
  let n = List.length t.pending in
  List.iter (fun p -> Engine.cancel p.handle) t.pending;
  t.pending <- [];
  t.tally.lost <- t.tally.lost + n;
  if n > 0 then tell t "crash.lost_writes" (string_of_int n) else tell t "crash" ""

let in_flight t = List.length t.pending

let base_latency t = t.base_latency

let tally t = t.tally

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
