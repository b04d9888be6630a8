open Resets_sim

type config = {
  interval : Time.t;
  timeout : Time.t;
  max_misses : int;
}

let default_config =
  { interval = Time.of_ms 1; timeout = Time.of_us 400; max_misses = 3 }

type t = {
  engine : Engine.t;
  config : config;
  send_probe : unit -> unit;
  on_dead : unit -> unit;
  mutable running : bool;
  mutable dead : bool;
  mutable misses : int;
  mutable acked_current : bool;
  mutable timer : Engine.handle option;
}

let create engine config ~send_probe ~on_dead =
  if config.max_misses <= 0 then invalid_arg "Dpd.create: max_misses must be positive";
  {
    engine;
    config;
    send_probe;
    on_dead;
    running = false;
    dead = false;
    misses = 0;
    acked_current = false;
    timer = None;
  }

let cancel_timer t =
  match t.timer with
  | None -> ()
  | Some h ->
    Engine.cancel h;
    t.timer <- None

let rec probe t =
  if t.running && not t.dead then begin
    t.acked_current <- false;
    t.send_probe ();
    t.timer <-
      Some
        (Engine.schedule_after t.engine ~after:t.config.timeout (fun () ->
             t.timer <- None;
             if not t.acked_current then begin
               t.misses <- t.misses + 1;
               if t.misses >= t.config.max_misses then begin
                 t.dead <- true;
                 t.on_dead ()
               end
             end;
             if t.running && not t.dead then schedule_next t))
  end

and schedule_next t =
  let wait = Time.diff (Time.max t.config.interval t.config.timeout) t.config.timeout in
  t.timer <- Some (Engine.schedule_after t.engine ~after:wait (fun () -> probe t))

let start t =
  if t.running then invalid_arg "Dpd.start: already started";
  t.running <- true;
  probe t

let stop t =
  t.running <- false;
  cancel_timer t

let probe_acked t =
  t.acked_current <- true;
  t.misses <- 0;
  if t.dead then begin
    t.dead <- false;
    if t.running then probe t
  end

let is_dead t = t.dead

let misses t = t.misses
