(* Differential suite: the timer-wheel Engine against the legacy
   binary-heap Engine_heap (the reference oracle). Both implement the
   same (time, insertion order) contract; every test here drives the
   two through identical schedule/cancel streams and requires
   bit-identical fire orders — plus directed cases at the wheel's
   geometry: slot boundaries, cascade edges, far-future levels and the
   Time_limit side channel. *)

open Resets_sim

[@@@warning "-32"] (* the ENGINE signature names the full interface *)

module type ENGINE = sig
  type t
  type handle

  val create : ?hint:int -> unit -> t
  val now : t -> Time.t
  val schedule_at : t -> at:Time.t -> (unit -> unit) -> handle
  val schedule_after : t -> after:Time.t -> (unit -> unit) -> handle
  val cancel : handle -> unit
  val is_pending : handle -> bool
  val pending_count : t -> int
  val fired_count : t -> int

  type stop_reason = Quiescent | Time_limit | Event_limit | Stopped

  val run : ?until:Time.t -> ?max_events:int -> t -> stop_reason
  val step : t -> bool
  val stop : t -> unit
end

(* A schedule script: each spec is an event scheduled [delta] ns after
   the instant its parent fired (top-level specs: after t=0). When it
   fires it schedules its children and then cancels the handles whose
   ids it names (modulo the number issued so far — cancels of fired or
   already-cancelled events are deliberate no-ops in the contract). *)
type spec = { delta : int; children : spec list; cancels : int list }

module Drive (E : ENGINE) = struct
  type outcome = {
    order : int list; (* event ids in fire order *)
    fired : int;
    pending : int;
    final_now : int64;
  }

  let run ?until (script : spec list) =
    let eng = E.create () in
    let fired_order = ref [] in
    let handles : (int, E.handle) Hashtbl.t = Hashtbl.create 64 in
    let next_id = ref 0 in
    let rec schedule ~base (s : spec) =
      let id = !next_id in
      incr next_id;
      let at = Time.of_ns (Int64.of_int (base + s.delta)) in
      let h =
        E.schedule_at eng ~at (fun () ->
            fired_order := id :: !fired_order;
            let now_ns = Int64.to_int (Time.to_ns (E.now eng)) in
            List.iter (fun c -> schedule ~base:now_ns c) s.children;
            List.iter
              (fun c ->
                if !next_id > 0 then
                  match Hashtbl.find_opt handles (c mod !next_id) with
                  | Some h -> E.cancel h
                  | None -> ())
              s.cancels)
      in
      Hashtbl.replace handles id h
    in
    List.iter (schedule ~base:0) script;
    ignore (E.run ?until eng);
    {
      order = List.rev !fired_order;
      fired = E.fired_count eng;
      pending = E.pending_count eng;
      final_now = Time.to_ns (E.now eng);
    }
end

module Wheel = Drive (Engine)
module Heap_ref = Drive (Engine_heap)

let check_same ?until name script =
  let w = Wheel.run ?until script and h = Heap_ref.run ?until script in
  Alcotest.(check (list int)) (name ^ ": fire order") h.Heap_ref.order w.Wheel.order;
  Alcotest.(check int) (name ^ ": fired_count") h.Heap_ref.fired w.Wheel.fired;
  Alcotest.(check int) (name ^ ": pending_count") h.Heap_ref.pending w.Wheel.pending;
  Alcotest.(check int64) (name ^ ": now") h.Heap_ref.final_now w.Wheel.final_now

let leaf delta = { delta; children = []; cancels = [] }

(* ---------- directed cases at the wheel geometry ---------- *)

(* Every slot/level boundary of the 32-slot hierarchy: 32^k +/- 1. *)
let test_cascade_boundaries () =
  let boundaries =
    List.concat_map
      (fun k ->
        let b = int_of_float (32. ** float_of_int k) in
        [ b - 1; b; b + 1 ])
      [ 1; 2; 3; 4; 5 ]
  in
  check_same "boundaries" (List.map leaf (boundaries @ List.rev boundaries))

(* Far-future timers park in high levels and cascade down correctly,
   including one beyond an hour (level >= 7). *)
let test_far_future () =
  check_same "far future"
    (List.map leaf
       [ 3_600_000_000_000; 1_000_000_000; 1; 999_999_999; 0; 86_400_000_000_000 ])

(* Same-tick events fire in insertion order, including events a
   callback schedules at the very instant that is firing. *)
let test_same_tick_order () =
  let t = 1_000 in
  check_same "same tick"
    [
      { delta = t; children = [ leaf 0; leaf 0 ]; cancels = [] };
      leaf t;
      leaf t;
    ]

(* A Time_limit stop leaves the clock behind the wheel cursor; events
   scheduled into that gap must still fire in exact (time, seq) order
   (the side-channel path). *)
let test_time_limit_gap () =
  let drive (module E : ENGINE) =
    let eng = E.create () in
    let order = ref [] in
    let note id () = order := id :: !order in
    ignore (E.schedule_at eng ~at:(Time.of_ns 100L) (note 0));
    let r = E.run ~until:(Time.of_ns 50L) eng in
    assert (r = E.Time_limit);
    (* clock = 50, cursor has advanced toward 100: land two in the gap *)
    ignore (E.schedule_at eng ~at:(Time.of_ns 60L) (note 1));
    ignore (E.schedule_at eng ~at:(Time.of_ns 55L) (note 2));
    ignore (E.schedule_at eng ~at:(Time.of_ns 55L) (note 3));
    ignore (E.run eng);
    (List.rev !order, Time.to_ns (E.now eng))
  in
  let w = drive (module Engine) and h = drive (module Engine_heap) in
  Alcotest.(check (pair (list int) int64)) "gap order matches oracle" h w;
  Alcotest.(check (list int)) "gap order is (time, seq)" [ 2; 3; 1; 0 ] (fst w)

(* Cancelling the only occupant of a slot, then scheduling another
   event into the same slot, must not resurrect the cancelled one. *)
let test_cancel_then_reuse_slot () =
  let drive (module E : ENGINE) =
    let eng = E.create () in
    let order = ref [] in
    let h = E.schedule_at eng ~at:(Time.of_ns 64L) (fun () -> order := 0 :: !order) in
    E.cancel h;
    Alcotest.(check bool) "cancelled not pending" false (E.is_pending h);
    ignore (E.schedule_at eng ~at:(Time.of_ns 64L) (fun () -> order := 1 :: !order));
    ignore (E.run eng);
    List.rev !order
  in
  Alcotest.(check (list int)) "wheel" [ 1 ] (drive (module Engine));
  Alcotest.(check (list int)) "heap" [ 1 ] (drive (module Engine_heap))

let test_horizon_rejected () =
  let eng = Engine.create () in
  Alcotest.check_raises "beyond wheel horizon"
    (Invalid_argument "Engine.schedule_at: time beyond the wheel horizon")
    (fun () ->
      ignore (Engine.schedule_at eng ~at:(Time.of_ns Int64.max_int) ignore))

(* ---------- qcheck: random schedule/cancel streams ---------- *)

let spec_gen =
  let open QCheck in
  (* deltas biased toward slot boundaries and a spread of magnitudes *)
  let delta_gen =
    Gen.oneof
      [
        Gen.int_bound 100;
        Gen.map (fun k -> [| 31; 32; 33; 1023; 1024; 1025; 32767; 32768 |].(k))
          (Gen.int_bound 7);
        Gen.int_bound 1_000_000;
        Gen.map (fun x -> x * 1_000_000_000) (Gen.int_bound 5);
      ]
  in
  let rec tree depth =
    let open Gen in
    delta_gen >>= fun delta ->
    list_size (int_bound 3) (int_bound 200) >>= fun cancels ->
    (if depth = 0 then return []
     else list_size (int_bound 2) (tree (depth - 1)))
    >>= fun children -> return { delta; children; cancels }
  in
  let print_spec s =
    let rec go { delta; children; cancels } =
      Printf.sprintf "{d=%d;c=[%s];x=[%s]}" delta
        (String.concat ";" (List.map go children))
        (String.concat ";" (List.map string_of_int cancels))
    in
    String.concat " " (List.map go s)
  in
  QCheck.make ~print:print_spec Gen.(list_size (int_bound 40) (tree 2))

let qcheck_differential =
  QCheck.Test.make ~count:300 ~name:"wheel = heap on random schedule/cancel streams"
    spec_gen (fun script ->
      let w = Wheel.run script and h = Heap_ref.run script in
      w.Wheel.order = h.Heap_ref.order
      && w.Wheel.fired = h.Heap_ref.fired
      && w.Wheel.pending = h.Heap_ref.pending
      && w.Wheel.final_now = h.Heap_ref.final_now)

let qcheck_differential_until =
  QCheck.Test.make ~count:150
    ~name:"wheel = heap under a run limit (Time_limit path)"
    QCheck.(pair spec_gen (int_bound 2_000_000))
    (fun (script, until) ->
      let until = Time.of_ns (Int64.of_int until) in
      let w = Wheel.run ~until script and h = Heap_ref.run ~until script in
      w.Wheel.order = h.Heap_ref.order
      && w.Wheel.pending = h.Heap_ref.pending
      && w.Wheel.final_now = h.Heap_ref.final_now)

let () =
  Alcotest.run "engine_wheel"
    [
      ( "directed",
        [
          Alcotest.test_case "cascade boundaries" `Quick test_cascade_boundaries;
          Alcotest.test_case "far-future levels" `Quick test_far_future;
          Alcotest.test_case "same-tick order" `Quick test_same_tick_order;
          Alcotest.test_case "time-limit gap (side channel)" `Quick
            test_time_limit_gap;
          Alcotest.test_case "cancel then reuse slot" `Quick
            test_cancel_then_reuse_slot;
          Alcotest.test_case "horizon rejected" `Quick test_horizon_rejected;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest qcheck_differential;
          QCheck_alcotest.to_alcotest qcheck_differential_until;
        ] );
    ]
