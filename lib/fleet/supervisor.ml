type spec = {
  name : string;
  argv : int -> string list; (* incarnation number -> command line *)
  log : string;
  watchdog : (string * float) option; (* heartbeat file, stall timeout *)
  backoff_base : float;
  backoff_cap : float;
}

let default_spec ~name ~argv ~log =
  {
    name;
    argv;
    log;
    watchdog = None;
    backoff_base = 0.1;
    backoff_cap = 2.0;
  }

type slot = {
  spec : spec;
  mutable proc : Proc.t option;
  mutable incarnation : int; (* next incarnation number to spawn *)
  mutable respawn_at : float option;
  mutable wipe : string list; (* dirs to empty before the next spawn *)
  mutable auto_restart : bool;
  mutable restarts : int;
  mutable watchdog_restarts : int;
  mutable backoff : float;
  mutable hb_size : int; (* last observed heartbeat file size *)
  mutable hb_changed_at : float; (* when it last grew *)
  mutable history : Proc.t list; (* dead incarnations, newest first *)
}

type t = { mutable slots : slot list }

let create () = { slots = [] }

let add t spec =
  let slot =
    {
      spec;
      proc = None;
      incarnation = 0;
      respawn_at = None;
      wipe = [];
      auto_restart = true;
      restarts = 0;
      watchdog_restarts = 0;
      backoff = spec.backoff_base;
      hb_size = 0;
      hb_changed_at = 0.;
      history = [];
    }
  in
  t.slots <- t.slots @ [ slot ];
  slot

let proc s = s.proc
let incarnations s = List.rev s.history @ Option.to_list s.proc
let restarts s = s.restarts
let watchdog_restarts s = s.watchdog_restarts

(* Empty a directory (keep the directory itself): the disk-lost cold
   start. Recursive — snapshot stores may grow nested tmp files. *)
let rec wipe_dir dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun name ->
        let p = Filename.concat dir name in
        if Sys.is_directory p then begin
          wipe_dir p;
          try Sys.rmdir p with Sys_error _ -> ()
        end
        else try Sys.remove p with Sys_error _ -> ())
      entries

let spawn_slot s ~now =
  List.iter (fun d -> if Sys.file_exists d then wipe_dir d) s.wipe;
  s.wipe <- [];
  let p = Proc.spawn ~argv:(s.spec.argv s.incarnation) ~log:s.spec.log () in
  s.proc <- Some p;
  s.incarnation <- s.incarnation + 1;
  s.respawn_at <- None;
  s.hb_size <- 0;
  s.hb_changed_at <- now

let start t =
  let now = Unix.gettimeofday () in
  List.iter
    (fun s -> if s.proc = None && s.respawn_at = None then spawn_slot s ~now)
    t.slots

(* A deliberate, scripted kill: deliver the signal, optionally schedule
   the disk wipe, and pin the respawn to [hold] seconds of planned
   downtime (no backoff — this is the experiment's schedule, not a
   crash loop). *)
let kill ?(wipe = []) s ~signal ~hold =
  (match s.proc with Some p -> Proc.kill p signal | None -> ());
  s.wipe <- wipe @ s.wipe;
  s.respawn_at <- Some (Unix.gettimeofday () +. hold)

(* One supervision pass; call it from the experiment's wait loops. *)
let tick t =
  let now = Unix.gettimeofday () in
  List.iter
    (fun s ->
      (* 1. Reap: a dead child schedules its own respawn, with capped
         exponential backoff unless a scripted kill already pinned the
         time. A long stable run resets the backoff. *)
      (match s.proc with
      | Some p when Proc.poll p <> Proc.Running ->
        s.history <- p :: s.history;
        s.proc <- None;
        if s.auto_restart && s.respawn_at = None then begin
          if now -. Proc.started_at p > 5. then s.backoff <- s.spec.backoff_base;
          s.respawn_at <- Some (now +. s.backoff);
          s.backoff <- Float.min s.spec.backoff_cap (s.backoff *. 2.)
        end
      | _ -> ());
      (* 2. Watchdog: a live child whose heartbeat file has stopped
         growing past the deadline is stalled (SIGSTOP, livelock, hung
         I/O) — SIGKILL it and count the restart as watchdog-forced.
         The kill is reaped by the next pass, which schedules the
         respawn through the normal path. *)
      (match (s.proc, s.spec.watchdog) with
      | Some p, Some (hb_path, stall) when Proc.alive p ->
        let size =
          match Unix.stat hb_path with
          | st -> st.Unix.st_size
          | exception Unix.Unix_error _ -> 0
        in
        if size <> s.hb_size then begin
          s.hb_size <- size;
          s.hb_changed_at <- now
        end
        else if
          now -. s.hb_changed_at > stall
          && now -. Proc.started_at p > stall
        then begin
          s.watchdog_restarts <- s.watchdog_restarts + 1;
          Proc.kill p Sys.sigkill;
          s.hb_changed_at <- now (* one forced restart per stall *)
        end
      | _ -> ());
      (* 3. Respawn when due. *)
      match s.respawn_at with
      | Some at when now >= at && s.auto_restart ->
        if s.proc = None then begin
          s.restarts <- s.restarts + 1;
          spawn_slot s ~now
        end
      | _ -> ())
    t.slots

(* Run the tick loop until [cond] holds or the deadline passes. *)
let tick_until t ~timeout cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    tick t;
    if cond () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      (try Unix.sleepf 0.02 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

let stop t ~grace =
  List.iter
    (fun s ->
      s.auto_restart <- false;
      s.respawn_at <- None;
      match s.proc with Some p -> Proc.kill p Sys.sigterm | None -> ())
    t.slots;
  let all_dead () =
    List.for_all
      (fun s -> match s.proc with None -> true | Some p -> not (Proc.alive p))
      t.slots
  in
  let deadline = Unix.gettimeofday () +. grace in
  while (not (all_dead ())) && Unix.gettimeofday () < deadline do
    try Unix.sleepf 0.02 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter
    (fun s ->
      match s.proc with
      | Some p when Proc.alive p ->
        Proc.kill p Sys.sigkill;
        ignore (Proc.wait ~timeout:2. p : Proc.status option)
      | _ -> ())
    t.slots;
  List.iter
    (fun s ->
      match s.proc with
      | Some p ->
        s.history <- p :: s.history;
        s.proc <- None
      | None -> ())
    t.slots
