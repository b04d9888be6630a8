(* Hierarchical timer wheel.

   The engine's contract — events fire in exact (time, insertion
   order) order — used to be carried by a binary heap: O(log n)
   schedule and a comparison-heavy sift on every pop, which tops out
   around a quarter-million events/sec once a shard carries thousands
   of SAs' SAVE timers, resume deadlines and link deliveries. The
   wheel replaces that with O(1) schedule/cancel and an O(levels)
   amortized cascade per event, independent of the pending count.

   Layout. Simulated time is an integer nanosecond count; the wheel
   has [levels] = 13 levels of [32] slots, level [k] spanning bits
   [5k, 5k+5) of the absolute event time, so together they cover every
   representable future instant (up to [max_int] ns, ~146 sim-years)
   with no overflow list. A pending event lives at the level of the
   highest bit in which its time differs from the wheel cursor
   ([level_of]); its slot is its own time's bit-field at that level —
   slot placement depends only on the event time, the level on the
   cursor.

   Determinism. A level-0 slot spans exactly one nanosecond tick, and
   the cursor cannot leave a 32 ns level-0 window while any level-0
   slot is occupied, so all live events in a level-0 slot share one
   exact timestamp. Firing drains the slot into a reusable batch
   buffer and orders it by insertion seq — which is exactly the
   documented (time, insertion order) contract, bit-for-bit the order
   the heap produced. Events scheduled by callbacks at the current
   tick land back in the same slot and are drained as a second batch,
   after everything already pending at that time (they carry higher
   seqs), matching heap semantics.

   Cursor vs clock. The cursor is the wheel's internal low-water mark:
   it advances to a slot's base time when the slot is cascaded or
   drained and never passes a live event. The clock — what [now]
   reports — is the timestamp of the last fired event, clamped up to
   [until] on a Time_limit stop. The clock can therefore sit below the
   cursor after a Time_limit; an event scheduled into that gap (legal:
   it is not in the clock's past) cannot be placed in the wheel, whose
   geometry is anchored at the cursor, so it goes to a tiny sorted
   side list that is always drained before the wheel. In steady state
   the side list is empty; it exists only for that clock<cursor
   window.

   Cancellation marks the event and decrements the live counter; the
   slot entry itself is dropped when its slot is next drained or
   cascaded. [pending_count] stays O(1) through the counter, and the
   find loop visits earliest slots first, so no dead entry outlives
   the tick it was scheduled for. *)

let slot_bits = 5
let slots_per_level = 32
let slot_mask = slots_per_level - 1
let levels = 13 (* 13 * 5 = 65 bits >= the 62 payload bits of time *)

type event = {
  time : int; (* absolute ns; fits native int (Time.t < 2^62 enforced) *)
  seq : int;
  callback : unit -> unit;
  mutable cancelled : bool;
  mutable next : event; (* intrusive slot list, [nil]-terminated *)
  owner : t;
}

and t = {
  mutable clock : int; (* timestamp of the last fired event, ns *)
  mutable cursor : int; (* wheel low-water mark; >= all drained times *)
  mutable next_seq : int;
  mutable stop_requested : bool;
  mutable live : int;
  mutable fired : int;
  slots : event array; (* levels * 32 entries, [nil] = empty *)
  occupancy : int array; (* one 32-bit slot bitmap per level *)
  mutable side : event list; (* clock<cursor stragglers, (time,seq)-sorted *)
  mutable batch : event array; (* current tick, seq-sorted, reused *)
  mutable batch_len : int;
  mutable batch_pos : int;
}

(* The list terminator and its dummy owner form a static cycle so that
   event records need no option boxing on the [next] link. Neither
   value ever escapes this module. *)
let rec nil =
  {
    time = 0;
    seq = -1;
    callback = ignore;
    cancelled = true;
    next = nil;
    owner = nil_owner;
  }

and nil_owner =
  {
    clock = 0;
    cursor = 0;
    next_seq = 0;
    stop_requested = false;
    live = 0;
    fired = 0;
    slots = [||];
    occupancy = [||];
    side = [];
    batch = [||];
    batch_len = 0;
    batch_pos = 0;
  }

type handle = event

let create ?hint () =
  let batch_cap =
    match hint with
    | Some h -> Stdlib.min 1024 (Stdlib.max 8 h)
    | None -> 64
  in
  {
    clock = 0;
    cursor = 0;
    next_seq = 0;
    stop_requested = false;
    live = 0;
    fired = 0;
    slots = Array.make (levels * slots_per_level) nil;
    occupancy = Array.make levels 0;
    side = [];
    batch = Array.make batch_cap nil;
    batch_len = 0;
    batch_pos = 0;
  }

let now t = Time.of_ns (Int64.of_int t.clock)

(* Index of the highest set bit of [m] > 0 (branchy binary search: no
   clz intrinsic in the stdlib, and this stays allocation-free). *)
let msb m =
  let r = ref 0 and m = ref m in
  if !m lsr 32 <> 0 then begin
    r := !r + 32;
    m := !m lsr 32
  end;
  if !m lsr 16 <> 0 then begin
    r := !r + 16;
    m := !m lsr 16
  end;
  if !m lsr 8 <> 0 then begin
    r := !r + 8;
    m := !m lsr 8
  end;
  if !m lsr 4 <> 0 then begin
    r := !r + 4;
    m := !m lsr 4
  end;
  if !m lsr 2 <> 0 then begin
    r := !r + 2;
    m := !m lsr 2
  end;
  if !m lsr 1 <> 0 then incr r;
  !r

(* Index of the lowest set bit of [b] > 0. *)
let ctz b = msb (b land -b)

(* Place a live event into the wheel. The level is the bit-range of
   the highest difference between the event time and the cursor; the
   slot within it is the event time's own bit-field, so re-inserting
   after a cursor advance (cascade) always lands the event lower. *)
let wheel_insert t e =
  let masked = e.time lxor t.cursor in
  let lvl = if masked = 0 then 0 else msb masked / slot_bits in
  let slot = (e.time lsr (lvl * slot_bits)) land slot_mask in
  let idx = (lvl lsl slot_bits) lor slot in
  e.next <- t.slots.(idx);
  t.slots.(idx) <- e;
  t.occupancy.(lvl) <- t.occupancy.(lvl) lor (1 lsl slot)

(* Insert into the side list keeping (time, seq) order. Only reachable
   for events scheduled into the clock<cursor gap after a Time_limit
   stop, so the list is almost always empty and never long. *)
let rec side_insert e = function
  | [] -> [ e ]
  | x :: rest ->
    if x.time < e.time || (x.time = e.time && x.seq < e.seq) then
      x :: side_insert e rest
    else e :: x :: rest

let ns_of_time tm =
  let ns = Time.to_ns tm in
  if Int64.compare ns (Int64.of_int max_int) > 0 then
    invalid_arg "Engine.schedule_at: time beyond the wheel horizon";
  Int64.to_int ns

let schedule_at t ~at callback =
  let at_ns = ns_of_time at in
  if at_ns < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  let event =
    {
      time = at_ns;
      seq = t.next_seq;
      callback;
      cancelled = false;
      next = nil;
      owner = t;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  if at_ns < t.cursor then t.side <- side_insert event t.side
  else wheel_insert t event;
  event

let schedule_after t ~after callback =
  schedule_at t ~at:(Time.add (now t) after) callback

let cancel event =
  if not event.cancelled then begin
    event.cancelled <- true;
    event.owner.live <- event.owner.live - 1
  end

let is_pending event = not event.cancelled

let pending_count t = t.live
let fired_count t = t.fired

let batch_push t e =
  if t.batch_len = Array.length t.batch then begin
    let grown = Array.make (Stdlib.max 8 (2 * Array.length t.batch)) nil in
    Array.blit t.batch 0 grown 0 t.batch_len;
    t.batch <- grown
  end;
  t.batch.(t.batch_len) <- e;
  t.batch_len <- t.batch_len + 1

(* Order the freshly drained tick by insertion seq. Ticks are almost
   always small (events of one SA at one instant), so an in-place
   insertion sort wins; pathological same-time bursts fall back to the
   stdlib sort. Seqs are unique, so the order is total either way. *)
let sort_batch t =
  let n = t.batch_len in
  if n > 64 then begin
    let a = Array.sub t.batch 0 n in
    Array.sort (fun (a : event) b -> Int.compare a.seq b.seq) a;
    Array.blit a 0 t.batch 0 n
  end
  else
    for i = 1 to n - 1 do
      let e = t.batch.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && t.batch.(!j).seq > e.seq do
        t.batch.(!j + 1) <- t.batch.(!j);
        decr j
      done;
      t.batch.(!j + 1) <- e
    done

(* Next live event, without firing it: side list first (strictly
   earlier than everything in the wheel by construction), then the
   current batch, then refill the batch from the wheel. *)
let rec prepare t =
  match t.side with
  | e :: rest ->
    if e.cancelled then begin
      t.side <- rest;
      prepare t
    end
    else Some e
  | [] ->
    if t.batch_pos < t.batch_len then begin
      let e = t.batch.(t.batch_pos) in
      if e.cancelled then begin
        t.batch.(t.batch_pos) <- nil;
        t.batch_pos <- t.batch_pos + 1;
        prepare t
      end
      else Some e
    end
    else begin
      t.batch_len <- 0;
      t.batch_pos <- 0;
      if t.live = 0 then None else refill t
    end

(* Find the earliest occupied slot — lowest occupied level, lowest set
   bit in its bitmap; the level nesting makes that the global earliest
   tick. A level-0 hit is an exact tick: drain it into the batch. A
   higher-level hit is a window: advance the cursor to the window base
   and scatter the events back in at strictly lower levels (each event
   cascades at most [levels] times over its whole life). *)
and refill t =
  let lvl = ref 0 in
  while !lvl < levels && t.occupancy.(!lvl) = 0 do
    incr lvl
  done;
  if !lvl = levels then None
  else begin
    let occ = t.occupancy.(!lvl) in
    let slot = ctz occ in
    let idx = (!lvl lsl slot_bits) lor slot in
    let head = t.slots.(idx) in
    t.slots.(idx) <- nil;
    t.occupancy.(!lvl) <- occ land lnot (1 lsl slot);
    if !lvl = 0 then begin
      let e = ref head in
      while !e != nil do
        let cur = !e in
        e := cur.next;
        cur.next <- nil;
        if not cur.cancelled then batch_push t cur
      done;
      if t.batch_len = 0 then prepare t
      else begin
        sort_batch t;
        t.batch_pos <- 0;
        t.cursor <- t.batch.(0).time;
        Some t.batch.(0)
      end
    end
    else begin
      let shift = !lvl * slot_bits in
      let high =
        if shift + slot_bits >= 62 then 0
        else t.cursor land lnot ((1 lsl (shift + slot_bits)) - 1)
      in
      t.cursor <- high lor (slot lsl shift);
      let e = ref head in
      while !e != nil do
        let cur = !e in
        e := cur.next;
        cur.next <- nil;
        if not cur.cancelled then wheel_insert t cur
      done;
      prepare t
    end
  end

type stop_reason = Quiescent | Time_limit | Event_limit | Stopped

let fire t e =
  (match t.side with
  | x :: rest when x == e -> t.side <- rest
  | _ ->
    t.batch.(t.batch_pos) <- nil;
    t.batch_pos <- t.batch_pos + 1);
  t.clock <- e.time;
  e.cancelled <- true;
  t.live <- t.live - 1;
  t.fired <- t.fired + 1;
  e.callback ()

let step t =
  match prepare t with
  | None -> false
  | Some e ->
    fire t e;
    true

let stop t = t.stop_requested <- true

(* [until] beyond the wheel horizon clamps to [max_int] ns: nothing is
   schedulable past it, so the clamp is indistinguishable from the
   unclamped limit. *)
let ns_of_limit tm =
  let ns = Time.to_ns tm in
  if Int64.compare ns (Int64.of_int max_int) > 0 then max_int
  else Int64.to_int ns

let run ?until ?max_events t =
  t.stop_requested <- false;
  let limit = Option.map ns_of_limit until in
  let fired = ref 0 in
  let rec loop () =
    if t.stop_requested then Stopped
    else
      match max_events with
      | Some m when !fired >= m -> Event_limit
      | Some _ | None -> (
        match prepare t with
        | None -> Quiescent
        | Some e -> (
          match limit with
          | Some l when l < e.time ->
            t.clock <- Stdlib.max t.clock l;
            Time_limit
          | Some _ | None ->
            fire t e;
            incr fired;
            loop ()))
  in
  loop ()

let next_due t =
  match prepare t with
  | None -> None
  | Some e -> Some (Time.of_ns (Int64.of_int e.time))

(* Real-time driver: fire everything the wall clock has caught up
   with, then hand the gap to [idle] (a daemon's socket poll). The
   virtual clock degenerates to [run], preserving the determinism
   contract bit for bit. *)
let run_clocked ~clock ?idle ?tick ?until ?max_events t =
  if Clock.is_virtual clock then run ?until ?max_events t
  else begin
    let limit = Option.map ns_of_limit until in
    let budget = ref (match max_events with Some m -> m | None -> max_int) in
    let rec loop () =
      if t.stop_requested then Stopped
      else if !budget <= 0 then Event_limit
      else begin
        let elapsed_ns = ns_of_limit (Clock.elapsed clock) in
        let horizon =
          match limit with
          | Some l -> Stdlib.min l elapsed_ns
          | None -> elapsed_ns
        in
        let fired_before = t.fired in
        let reason =
          run ~until:(Time.of_ns (Int64.of_int horizon)) ~max_events:!budget t
        in
        budget := !budget - (t.fired - fired_before);
        (* Engine-tick boundary: one burst of due events has fired.
           The tx batching in Transport_udp flushes here, so a batch
           never outlives a tick even at low rates. *)
        (match tick with Some f -> f () | None -> ());
        match reason with
        | Stopped -> Stopped
        | Event_limit -> Event_limit
        | Quiescent | Time_limit -> (
          match limit with
          | Some l when elapsed_ns >= l ->
            t.clock <- Stdlib.max t.clock l;
            Time_limit
          | Some _ | None -> (
            let due = next_due t in
            match idle with
            | Some wait ->
              wait ~due;
              loop ()
            | None -> (
              (* No poll hook: nothing can inject new events, so an
                 empty wheel is final; otherwise spin until the wall
                 reaches the next deadline. *)
              match due with
              | None -> Quiescent
              | Some _ ->
                Domain.cpu_relax ();
                loop ())))
      end
    in
    t.stop_requested <- false;
    loop ()
  end
