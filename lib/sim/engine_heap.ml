open Resets_util

type event = {
  time : Time.t;
  seq : int;
  callback : unit -> unit;
  mutable cancelled : bool;
  owner : t;
}

and t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable stop_requested : bool;
  mutable live : int;
  mutable fired : int;
  queue : event Heap.t;
}

type handle = event

let compare_event a b =
  match Time.compare a.time b.time with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let create ?hint () =
  {
    clock = Time.zero;
    next_seq = 0;
    stop_requested = false;
    live = 0;
    fired = 0;
    queue =
      (match hint with
      | Some capacity -> Heap.create_sized ~capacity ~cmp:compare_event
      | None -> Heap.create ~cmp:compare_event);
  }

let now t = t.clock

let schedule_at t ~at callback =
  if Time.(at < t.clock) then
    invalid_arg "Engine_heap.schedule_at: time in the past";
  let event =
    {
      time = at;
      seq = t.next_seq;
      callback;
      cancelled = false;
      owner = t;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  Heap.add t.queue event;
  event

let schedule_after t ~after callback =
  schedule_at t ~at:(Time.add t.clock after) callback

(* Drop cancelled entries sitting at the heap top so they release their
   memory immediately instead of lingering until the clock reaches them. *)
let rec drop_cancelled_top t =
  match Heap.peek t.queue with
  | Some e when e.cancelled ->
    ignore (Heap.pop t.queue);
    drop_cancelled_top t
  | Some _ | None -> ()

let cancel event =
  if not event.cancelled then begin
    event.cancelled <- true;
    let t = event.owner in
    t.live <- t.live - 1;
    drop_cancelled_top t
  end

let is_pending event = not event.cancelled

let pending_count t = t.live
let fired_count t = t.fired

type stop_reason = Quiescent | Time_limit | Event_limit | Stopped

(* Pop the next live event without firing it. *)
let next_live t =
  drop_cancelled_top t;
  Heap.peek t.queue

let fire t e =
  ignore (Heap.pop t.queue);
  t.clock <- e.time;
  e.cancelled <- true;
  t.live <- t.live - 1;
  t.fired <- t.fired + 1;
  e.callback ()

let step t =
  match next_live t with
  | None -> false
  | Some e ->
    fire t e;
    true

let stop t = t.stop_requested <- true

let run ?until ?max_events t =
  t.stop_requested <- false;
  let fired = ref 0 in
  let rec loop () =
    if t.stop_requested then Stopped
    else
      match max_events with
      | Some m when !fired >= m -> Event_limit
      | Some _ | None -> (
        match next_live t with
        | None -> Quiescent
        | Some e -> (
          match until with
          | Some limit when Time.(limit < e.time) ->
            t.clock <- Time.max t.clock limit;
            Time_limit
          | Some _ | None ->
            fire t e;
            incr fired;
            loop ()))
  in
  loop ()
