(* In-memory span recorder for the traced run.

   A span is (name, request id, parent, start, end) on the monotonic
   clock. Spans nest through an explicit current-span pointer. A span's
   duration is end - start less the cost of one clock read, which every
   span carries (see [clock_ns]); its self time is its duration minus
   the durations of its children. Calls too frequent to keep one record
   each (hash and equality probes in the explorer's visited set) go
   through [tally]: every call is counted, a pseudo-random one in
   [tally_period] is timed (less the clock's own cost), and the
   estimate (timed ns scaled by the period) is charged to the enclosing
   span's children and to a per-name aggregate, without storing a
   record. *)

type counter = { mutable ns : int; mutable calls : int; mutable timed : int }

let tally_period = 16

(* Cost of one clock read: the least gap between two back-to-back
   reads. It is taken off every span's duration and every timed tally
   call. *)
let clock_ns =
  lazy
    (let best = ref max_int in
     for _ = 1 to 2000 do
       let a = Common.now_ns () in
       let b = Common.now_ns () in
       best := min !best (b - a)
     done;
     !best)

let lcg = ref 0x2545F491

type t = {
  mutable n : int;
  mutable names : string array;
  mutable ids : int array;
  mutable parents : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable child_ns : int array;
  mutable current : int;
  tallies : (string, counter) Hashtbl.t;
  enabled : bool;
}

let create ?(capacity = 1 lsl 16) ~enabled () =
  if enabled then ignore (Lazy.force clock_ns);
  {
    n = 0;
    names = Array.make capacity "";
    ids = Array.make capacity 0;
    parents = Array.make capacity (-1);
    t0 = Array.make capacity 0;
    t1 = Array.make capacity 0;
    child_ns = Array.make capacity 0;
    current = -1;
    tallies = Hashtbl.create 16;
    enabled;
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- ext t.names "";
  t.ids <- ext t.ids 0;
  t.parents <- ext t.parents (-1);
  t.t0 <- ext t.t0 0;
  t.t1 <- ext t.t1 0;
  t.child_ns <- ext t.child_ns 0

let current_id t = if t.current < 0 then 0 else t.ids.(t.current)

let enter t name ~id =
  if not t.enabled then -1
  else begin
    if t.n = Array.length t.names then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.names.(i) <- name;
    t.ids.(i) <- id;
    t.parents.(i) <- t.current;
    t.child_ns.(i) <- 0;
    t.current <- i;
    t.t0.(i) <- Common.now_ns ();
    i
  end

let duration t i = max 0 (t.t1.(i) - t.t0.(i) - Lazy.force clock_ns)

let leave t i =
  if i >= 0 then begin
    t.t1.(i) <- Common.now_ns ();
    let p = t.parents.(i) in
    if p >= 0 then t.child_ns.(p) <- t.child_ns.(p) + duration t i;
    t.current <- p
  end

let span t name ~id f =
  let i = enter t name ~id in
  match f () with
  | v ->
    leave t i;
    v
  | exception e ->
    leave t i;
    raise e

let counter t name =
  match Hashtbl.find_opt t.tallies name with
  | Some c -> c
  | None ->
    let c = { ns = 0; calls = 0; timed = 0 } in
    Hashtbl.replace t.tallies name c;
    c

let tally t c f =
  if not t.enabled then f ()
  else begin
    c.calls <- c.calls + 1;
    lcg := (!lcg * 1103515245) + 12345;
    if (!lcg lsr 16) land (tally_period - 1) <> 0 then f ()
    else begin
      let overhead = Lazy.force clock_ns in
      let start = Common.now_ns () in
      let v = f () in
      let dt = max 0 (Common.now_ns () - start - overhead) in
      if t.current >= 0 then
        t.child_ns.(t.current) <- t.child_ns.(t.current) + (dt * tally_period);
      c.ns <- c.ns + dt;
      c.timed <- c.timed + 1;
      v
    end
  end

(* Estimated total ns of a tally. *)
let tally_ns c = if c.timed = 0 then 0 else c.ns * c.calls / c.timed

(* Per-name totals: (self ns, calls). *)
let self_times t =
  let acc = Hashtbl.create 32 in
  let add name ns calls =
    match Hashtbl.find_opt acc name with
    | Some (a, c) -> Hashtbl.replace acc name (a + ns, c + calls)
    | None -> Hashtbl.replace acc name (ns, calls)
  in
  for i = 0 to t.n - 1 do
    add t.names.(i) (duration t i - t.child_ns.(i)) 1
  done;
  Hashtbl.iter (fun name c -> add name (tally_ns c) c.calls) t.tallies;
  acc

let self_ns t name =
  match Hashtbl.find_opt (self_times t) name with Some (ns, _) -> ns | None -> 0

let mean_self_ns t name =
  match Hashtbl.find_opt (self_times t) name with
  | Some (ns, calls) when calls > 0 -> float_of_int ns /. float_of_int calls
  | _ -> 0.

(* Write every span, then the tallies, as tab-separated lines:
   span NAME ID PARENT START_NS END_NS / tally NAME EST_TOTAL_NS CALLS. *)
let write t path =
  Out_channel.with_open_bin path (fun oc ->
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "span\t%s\t%d\t%d\t%d\t%d\n" t.names.(i) t.ids.(i)
          t.parents.(i) t.t0.(i) t.t1.(i)
      done;
      Hashtbl.iter
        (fun name c -> Printf.fprintf oc "tally\t%s\t%d\t%d\n" name (tally_ns c) c.calls)
        t.tallies)
