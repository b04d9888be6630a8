(* Unit tests for the discrete-event substrate: Time, Engine, Trace,
   Link. *)

open Resets_util
open Resets_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let us = Time.of_us

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_conversions () =
  Alcotest.(check int64) "us" 1_000L (Time.to_ns (Time.of_us 1));
  Alcotest.(check int64) "ms" 1_000_000L (Time.to_ns (Time.of_ms 1));
  Alcotest.(check int64) "sec" 1_500_000_000L (Time.to_ns (Time.of_sec 1.5));
  Alcotest.(check (float 1e-9)) "to_sec" 0.001 (Time.to_sec (Time.of_ms 1));
  Alcotest.(check (float 1e-9)) "to_us" 1000. (Time.to_us (Time.of_ms 1))

let test_time_arithmetic () =
  let a = us 10 and b = us 3 in
  Alcotest.(check int64) "add" 13_000L (Time.to_ns (Time.add a b));
  Alcotest.(check int64) "diff" 7_000L (Time.to_ns (Time.diff a b));
  Alcotest.(check int64) "mul" 30_000L (Time.to_ns (Time.mul a 3));
  check_bool "lt" true Time.(b < a);
  check_bool "le refl" true Time.(a <= a);
  Alcotest.(check int64) "min" (Time.to_ns b) (Time.to_ns (Time.min a b));
  Alcotest.(check int64) "max" (Time.to_ns a) (Time.to_ns (Time.max a b))

let test_time_invalid () =
  Alcotest.check_raises "negative ns" (Invalid_argument "Time.of_ns: negative")
    (fun () -> ignore (Time.of_ns (-1L)));
  Alcotest.check_raises "negative diff" (Invalid_argument "Time.diff: negative result")
    (fun () -> ignore (Time.diff (us 1) (us 2)));
  Alcotest.check_raises "negative sec" (Invalid_argument "Time.of_sec: invalid")
    (fun () -> ignore (Time.of_sec (-1.)))

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_fires_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule_at e ~at:(us 30) (note "c"));
  ignore (Engine.schedule_at e ~at:(us 10) (note "a"));
  ignore (Engine.schedule_at e ~at:(us 20) (note "b"));
  Alcotest.(check bool) "quiescent" true (Engine.run e = Engine.Quiescent);
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_fifo_at_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule_at e ~at:(us 10) (fun () -> log := i :: !log))
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let seen = ref Time.zero in
  ignore (Engine.schedule_at e ~at:(us 42) (fun () -> seen := Engine.now e));
  ignore (Engine.run e);
  Alcotest.(check int64) "clock at event" 42_000L (Time.to_ns !seen);
  Alcotest.(check int64) "clock after run" 42_000L (Time.to_ns (Engine.now e))

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at e ~at:(us 5) (fun () -> fired := true) in
  check_bool "pending before" true (Engine.is_pending h);
  Engine.cancel h;
  check_bool "pending after" false (Engine.is_pending h);
  ignore (Engine.run e);
  check_bool "not fired" false !fired

let test_engine_schedule_in_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e ~at:(us 10) (fun () -> ()));
  ignore (Engine.run e);
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Engine.schedule_at e ~at:(us 5) (fun () -> ())))

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule_at e ~at:(us 10) (fun () -> incr fired));
  ignore (Engine.schedule_at e ~at:(us 30) (fun () -> incr fired));
  let reason = Engine.run ~until:(us 20) e in
  check_bool "time limit" true (reason = Engine.Time_limit);
  check_int "one fired" 1 !fired;
  Alcotest.(check int64) "clock at limit" 20_000L (Time.to_ns (Engine.now e));
  (* continue *)
  ignore (Engine.run e);
  check_int "both fired" 2 !fired

let test_engine_max_events () =
  let e = Engine.create () in
  for i = 1 to 10 do
    ignore (Engine.schedule_at e ~at:(us i) (fun () -> ()))
  done;
  let reason = Engine.run ~max_events:3 e in
  check_bool "event limit" true (reason = Engine.Event_limit);
  check_int "pending left" 7 (Engine.pending_count e)

let test_engine_stop () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore
    (Engine.schedule_at e ~at:(us 1) (fun () ->
         incr fired;
         Engine.stop e));
  ignore (Engine.schedule_at e ~at:(us 2) (fun () -> incr fired));
  let reason = Engine.run e in
  check_bool "stopped" true (reason = Engine.Stopped);
  check_int "only first" 1 !fired

let test_engine_step () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule_at e ~at:(us 1) (fun () -> incr fired));
  check_bool "step true" true (Engine.step e);
  check_int "fired" 1 !fired;
  check_bool "step false on empty" false (Engine.step e)

let test_engine_cascading () =
  (* Events scheduling events: a chain of 1000. *)
  let e = Engine.create () in
  let count = ref 0 in
  let rec chain () =
    incr count;
    if !count < 1000 then ignore (Engine.schedule_after e ~after:(us 1) chain)
  in
  ignore (Engine.schedule_after e ~after:(us 1) chain);
  ignore (Engine.run e);
  check_int "chain completed" 1000 !count;
  Alcotest.(check int64) "clock" 1_000_000L (Time.to_ns (Engine.now e))

let test_engine_pending_count_is_live () =
  let e = Engine.create () in
  let h = Engine.schedule_at e ~at:(us 1) (fun () -> ()) in
  ignore (Engine.schedule_at e ~at:(us 2) (fun () -> ()));
  ignore (Engine.schedule_at e ~at:(us 3) (fun () -> ()));
  check_int "three pending" 3 (Engine.pending_count e);
  Engine.cancel h;
  check_int "cancel decrements" 2 (Engine.pending_count e);
  Engine.cancel h;
  check_int "double cancel counted once" 2 (Engine.pending_count e);
  ignore (Engine.run e);
  check_int "drained" 0 (Engine.pending_count e)

let test_engine_cancelled_storm_is_dropped () =
  (* Mass cancellation (a crash wiping queued deliveries) must leave no
     dead weight: with every event cancelled the engine is quiescent
     immediately, nothing fires, and the clock does not move. *)
  let e = Engine.create () in
  let handles =
    Array.init 1000 (fun i ->
        Engine.schedule_at e ~at:(us (i + 1)) (fun () ->
            Alcotest.fail "cancelled event fired"))
  in
  Array.iter Engine.cancel handles;
  check_int "no live events" 0 (Engine.pending_count e);
  check_bool "step finds nothing" false (Engine.step e);
  check_bool "quiescent" true (Engine.run e = Engine.Quiescent);
  Alcotest.(check int64) "clock untouched" 0L (Time.to_ns (Engine.now e))

let test_engine_fired_count () =
  let e = Engine.create () in
  let h = Engine.schedule_at e ~at:(us 1) (fun () -> ()) in
  ignore (Engine.schedule_at e ~at:(us 2) (fun () -> ()));
  ignore (Engine.schedule_at e ~at:(us 3) (fun () -> ()));
  check_int "nothing fired yet" 0 (Engine.fired_count e);
  Engine.cancel h;
  ignore (Engine.run e);
  check_int "cancelled events do not count" 2 (Engine.fired_count e)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_record_and_find () =
  let e = Engine.create () in
  let t = Trace.create () in
  Trace.record t ~time:(Engine.now e) ~source:"p" ~event:"send" "#1";
  Trace.record t ~time:(Engine.now e) ~source:"q" ~event:"rcv" "#1";
  Trace.record t ~time:(Engine.now e) ~source:"p" ~event:"send" "#2";
  check_int "count" 3 (Trace.count t);
  check_int "find send" 2 (List.length (Trace.find t ~event:"send"));
  check_int "find rcv" 1 (List.length (Trace.find t ~event:"rcv"))

let test_trace_capacity () =
  let t = Trace.create ~capacity:2 () in
  for i = 1 to 5 do
    Trace.record t ~time:Time.zero ~source:"x" ~event:"e" (string_of_int i)
  done;
  check_int "total counted" 5 (Trace.count t);
  let retained = Trace.entries t in
  check_int "ring bounded" 2 (List.length retained);
  Alcotest.(check (list string)) "newest kept" [ "4"; "5" ]
    (List.map (fun en -> en.Trace.detail) retained)

let test_trace_dump_format () =
  let t = Trace.create () in
  Trace.record t ~time:(Time.of_us 42) ~level:Trace.Warn ~source:"p" ~event:"reset" "x";
  let text = Format.asprintf "%a" Trace.dump t in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "time" true (contains "42.00us");
  Alcotest.(check bool) "level" true (contains "warn");
  Alcotest.(check bool) "event" true (contains "reset")

(* ------------------------------------------------------------------ *)
(* Link *)

let test_link_delivers_with_latency () =
  let e = Engine.create () in
  let link = Link.create ~latency:(us 10) e in
  let arrivals = ref [] in
  Link.set_deliver link (fun x -> arrivals := (x, Engine.now e) :: !arrivals);
  Link.send link "a";
  ignore (Engine.schedule_at e ~at:(us 5) (fun () -> Link.send link "b"));
  ignore (Engine.run e);
  let arrivals = List.rev !arrivals in
  Alcotest.(check (list string)) "payloads" [ "a"; "b" ] (List.map fst arrivals);
  Alcotest.(check (list int))
    "times (us)"
    [ 10; 15 ]
    (List.map (fun (_, t) -> int_of_float (Time.to_us t)) arrivals);
  check_int "sent" 2 (Link.sent link);
  check_int "delivered" 2 (Link.delivered link)

let test_link_no_receiver_drops () =
  let e = Engine.create () in
  let link = Link.create ~latency:(us 1) e in
  Link.send link "x";
  ignore (Engine.run e);
  check_int "dropped" 1 (Link.dropped link);
  check_int "delivered" 0 (Link.delivered link)

let test_link_down () =
  let e = Engine.create () in
  let link = Link.create ~latency:(us 1) e in
  let got = ref 0 in
  Link.set_deliver link (fun _ -> incr got);
  Link.set_up link false;
  Link.send link "lost";
  Link.set_up link true;
  Link.send link "ok";
  ignore (Engine.run e);
  check_int "one delivered" 1 !got;
  check_int "one dropped" 1 (Link.dropped link)

let test_link_loss_statistics () =
  let e = Engine.create () in
  let prng = Prng.create 5 in
  let faults = { Link.no_faults with loss_prob = 0.5 } in
  let link = Link.create ~faults ~prng ~latency:(us 1) e in
  let got = ref 0 in
  Link.set_deliver link (fun _ -> incr got);
  for _ = 1 to 2000 do
    Link.send link ()
  done;
  ignore (Engine.run e);
  check_bool "about half delivered" true (!got > 850 && !got < 1150);
  check_int "conservation" 2000 (!got + Link.dropped link)

let test_link_duplication () =
  let e = Engine.create () in
  let prng = Prng.create 6 in
  let faults = { Link.no_faults with dup_prob = 1.0 } in
  let link = Link.create ~faults ~prng ~latency:(us 1) e in
  let got = ref 0 in
  Link.set_deliver link (fun _ -> incr got);
  for _ = 1 to 10 do
    Link.send link ()
  done;
  ignore (Engine.run e);
  check_int "every packet doubled" 20 !got;
  check_int "dup counter" 10 (Link.duplicated link)

let test_link_reorder () =
  let e = Engine.create () in
  let prng = Prng.create 7 in
  (* First packet takes the slow path (+100us); second overtakes. *)
  let faults =
    { Link.no_faults with reorder_prob = 1.0; reorder_delay = us 100 }
  in
  let slow = Link.create ~faults ~prng ~latency:(us 1) e in
  let arrivals = ref [] in
  Link.set_deliver slow (fun x -> arrivals := x :: !arrivals);
  Link.send slow "first";
  ignore (Engine.run e);
  check_int "reordered counter" 1 (Link.reordered slow);
  Alcotest.(check (list string)) "delivered late" [ "first" ] !arrivals

let test_link_observer_sees_lost_packets () =
  let e = Engine.create () in
  let prng = Prng.create 8 in
  let faults = { Link.no_faults with loss_prob = 1.0 } in
  let link = Link.create ~faults ~prng ~latency:(us 1) e in
  let observed = ref 0 in
  Link.on_transit link (fun _ -> incr observed);
  Link.set_deliver link (fun _ -> Alcotest.fail "nothing should arrive");
  for _ = 1 to 5 do
    Link.send link ()
  done;
  ignore (Engine.run e);
  check_int "observer saw all" 5 !observed

let test_link_inject_bypasses_observer_and_faults () =
  let e = Engine.create () in
  let prng = Prng.create 9 in
  let faults = { Link.no_faults with loss_prob = 1.0 } in
  let link = Link.create ~faults ~prng ~latency:(us 1) e in
  let observed = ref 0 and got = ref 0 in
  Link.on_transit link (fun _ -> incr observed);
  Link.set_deliver link (fun _ -> incr got);
  Link.inject link ();
  ignore (Engine.run e);
  check_int "not observed" 0 !observed;
  check_int "delivered despite loss_prob=1" 1 !got;
  check_int "injected counter" 1 (Link.injected link)

let test_link_burst_loss_conservation () =
  (* Gilbert–Elliott burst loss: every packet is delivered or counted
     dropped, and the bad-state subset is tracked separately. *)
  let e = Engine.create () in
  let prng = Prng.create 21 in
  let burst =
    Some { Link.p_gb = 0.05; p_bg = 0.2; good_loss = 0.0; bad_loss = 0.9 }
  in
  let faults = { Link.no_faults with burst } in
  let link = Link.create ~faults ~prng ~latency:(us 1) e in
  let got = ref 0 in
  Link.set_deliver link (fun _ -> incr got);
  let n = 5_000 in
  for _ = 1 to n do
    Link.send link ()
  done;
  ignore (Engine.run e);
  check_int "conservation" n (!got + Link.dropped link);
  check_bool "bursts happened" true (Link.burst_dropped link > 0);
  check_int "all drops are burst drops (good_loss = 0)"
    (Link.dropped link) (Link.burst_dropped link)

let test_link_burst_all_bad () =
  (* p_gb = 1 with bad_loss = 1 and no way back: the chain enters the
     bad state before the first sample, so nothing ever arrives. *)
  let e = Engine.create () in
  let prng = Prng.create 22 in
  let burst =
    Some { Link.p_gb = 1.0; p_bg = 0.0; good_loss = 0.0; bad_loss = 1.0 }
  in
  let faults = { Link.no_faults with burst } in
  let link = Link.create ~faults ~prng ~latency:(us 1) e in
  Link.set_deliver link (fun _ -> Alcotest.fail "nothing should arrive");
  for _ = 1 to 50 do
    Link.send link ()
  done;
  ignore (Engine.run e);
  check_int "all dropped" 50 (Link.dropped link);
  check_int "all charged to the burst" 50 (Link.burst_dropped link)

let test_link_inject_while_down_counts_dropped () =
  (* Regression: injected packets used to vanish silently when the link
     was down — every loss must land in [dropped], whatever the cause. *)
  let e = Engine.create () in
  let link = Link.create ~latency:(us 1) e in
  Link.set_deliver link (fun _ -> Alcotest.fail "down link must not deliver");
  Link.set_up link false;
  Link.inject link ();
  ignore (Engine.run e);
  check_int "dropped" 1 (Link.dropped link);
  check_int "still counted injected" 1 (Link.injected link)

let test_link_requires_prng_for_faults () =
  let e = Engine.create () in
  Alcotest.check_raises "no prng"
    (Invalid_argument "Link.create: faults or jitter require a prng") (fun () ->
      ignore
        (Link.create
           ~faults:{ Link.no_faults with loss_prob = 0.1 }
           ~latency:(us 1) e
          : unit Link.t))

(* ------------------------------------------------------------------ *)
(* Duration pretty-printing *)

let test_duration_to_string () =
  let s t = Time.duration_to_string t in
  Alcotest.(check string) "ns" "250 ns" (s (Time.of_ns 250L));
  Alcotest.(check string) "us" "1.5 us" (s (Time.of_ns 1_500L));
  Alcotest.(check string) "ms" "1.25 ms" (s (Time.of_ns 1_250_000L));
  Alcotest.(check string) "s" "2 s" (s (Time.of_sec 2.));
  Alcotest.(check string) "zero" "0 ns" (s Time.zero);
  Alcotest.(check string) "whole ms" "3 ms" (s (Time.of_ms 3))

let test_duration_of_string () =
  let ns s =
    match Time.duration_of_string s with
    | Some t -> Time.to_ns t
    | None -> Alcotest.failf "unparsable: %S" s
  in
  Alcotest.(check int64) "ns" 250L (ns "250 ns");
  Alcotest.(check int64) "us" 1_500L (ns "1.5us");
  Alcotest.(check int64) "ms" 1_250_000L (ns "1.25 ms");
  Alcotest.(check int64) "s" 2_000_000_000L (ns "2 s");
  Alcotest.(check int64) "case" 7_000_000L (ns "7 MS");
  Alcotest.(check int64) "padding" 5_000L (ns "  5 us  ");
  check_bool "garbage" true (Time.duration_of_string "fast" = None);
  check_bool "negative" true (Time.duration_of_string "-1 ms" = None);
  check_bool "bad unit" true (Time.duration_of_string "3 h" = None);
  check_bool "empty" true (Time.duration_of_string "" = None)

let test_duration_roundtrip () =
  (* to_string then of_string is the identity on a spread of scales. *)
  List.iter
    (fun t ->
      let s = Time.duration_to_string t in
      match Time.duration_of_string s with
      | None -> Alcotest.failf "round trip lost %S" s
      | Some t' ->
          Alcotest.(check int64)
            (Printf.sprintf "round trip %s" s)
            (Time.to_ns t) (Time.to_ns t'))
    [
      Time.zero;
      Time.of_ns 1L;
      Time.of_ns 999L;
      Time.of_ns 1_000L;
      Time.of_ns 1_250L;
      Time.of_us 42;
      Time.of_ns 1_250_000L;
      Time.of_ms 999;
      Time.of_sec 1.;
      Time.of_sec 61.5;
    ]

(* ------------------------------------------------------------------ *)
(* Clock and Engine.run_clocked *)

let test_clock_virtual () =
  check_bool "virtual" true (Clock.is_virtual Clock.virtual_);
  Alcotest.check_raises "elapsed on virtual"
    (Invalid_argument "Clock.elapsed: virtual clock has no wall time")
    (fun () -> ignore (Clock.elapsed Clock.virtual_))

let test_clock_monotonized () =
  (* A source that stutters backwards must never move the axis back. *)
  let readings = ref [ 100L; 300L; 200L; 450L ] in
  let src () =
    match !readings with
    | [] -> 450L
    | r :: rest ->
        readings := rest;
        r
  in
  let c = Clock.of_ns_source src in
  check_bool "real" false (Clock.is_virtual c);
  (* origin sampled at create (100); subsequent reads are deltas. *)
  Alcotest.(check int64) "first" 200L (Time.to_ns (Clock.elapsed c));
  Alcotest.(check int64) "clamped" 200L (Time.to_ns (Clock.elapsed c));
  Alcotest.(check int64) "resumes" 350L (Time.to_ns (Clock.elapsed c))

let test_run_clocked_virtual_matches_run () =
  (* Same seeded workload on both drivers: identical fire order. *)
  let record engine log =
    ignore (Engine.schedule_at engine ~at:(us 30) (fun () -> log := "c" :: !log));
    ignore (Engine.schedule_at engine ~at:(us 10) (fun () -> log := "a" :: !log));
    ignore (Engine.schedule_at engine ~at:(us 10) (fun () -> log := "a2" :: !log));
    ignore (Engine.schedule_at engine ~at:(us 20) (fun () -> log := "b" :: !log))
  in
  let e1 = Engine.create () in
  let l1 = ref [] in
  record e1 l1;
  ignore (Engine.run e1);
  let e2 = Engine.create () in
  let l2 = ref [] in
  record e2 l2;
  let reason = Engine.run_clocked ~clock:Clock.virtual_ e2 in
  check_bool "quiescent" true (reason = Engine.Quiescent);
  Alcotest.(check (list string)) "identical order" (List.rev !l1) (List.rev !l2);
  Alcotest.(check int64) "same clock" (Time.to_ns (Engine.now e1))
    (Time.to_ns (Engine.now e2))

let test_run_clocked_real_fires_on_catchup () =
  (* Drive a fake monotonic source from the idle hook: events fire only
     once the wall clock passes their timestamps. *)
  let wall = ref 0L in
  let clock = Clock.of_ns_source (fun () -> !wall) in
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule_at e ~at:(us 10) (fun () -> log := 10 :: !log));
  ignore (Engine.schedule_at e ~at:(us 30) (fun () -> log := 30 :: !log));
  let idles = ref 0 in
  let idle ~due =
    incr idles;
    (* advance the wall to the next deadline, or stop when drained *)
    match due with
    | Some t -> wall := Time.to_ns t
    | None -> Engine.stop e
  in
  let reason = Engine.run_clocked ~clock ~idle e in
  check_bool "stopped from idle" true (reason = Engine.Stopped);
  Alcotest.(check (list int)) "fired in order" [ 10; 30 ] (List.rev !log);
  check_bool "idle ran" true (!idles >= 2)

let test_next_due () =
  let e = Engine.create () in
  check_bool "empty" true (Engine.next_due e = None);
  let h = Engine.schedule_at e ~at:(us 20) (fun () -> ()) in
  ignore (Engine.schedule_at e ~at:(us 40) (fun () -> ()));
  (match Engine.next_due e with
  | Some t -> Alcotest.(check int64) "earliest" 20_000L (Time.to_ns t)
  | None -> Alcotest.fail "expected a deadline");
  Engine.cancel h;
  (match Engine.next_due e with
  | Some t -> Alcotest.(check int64) "skips cancelled" 40_000L (Time.to_ns t)
  | None -> Alcotest.fail "expected the second deadline");
  ignore (Engine.run e);
  check_bool "drained" true (Engine.next_due e = None)

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "invalid" `Quick test_time_invalid;
          Alcotest.test_case "duration to_string" `Quick test_duration_to_string;
          Alcotest.test_case "duration of_string" `Quick test_duration_of_string;
          Alcotest.test_case "duration round trip" `Quick test_duration_roundtrip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_fires_in_time_order;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_at_same_time;
          Alcotest.test_case "clock" `Quick test_engine_clock_advances;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "past rejected" `Quick test_engine_schedule_in_past_rejected;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "stop" `Quick test_engine_stop;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "cascading" `Quick test_engine_cascading;
          Alcotest.test_case "live pending count" `Quick
            test_engine_pending_count_is_live;
          Alcotest.test_case "cancelled storm" `Quick
            test_engine_cancelled_storm_is_dropped;
          Alcotest.test_case "fired count" `Quick test_engine_fired_count;
          Alcotest.test_case "next_due" `Quick test_next_due;
        ] );
      ( "clock",
        [
          Alcotest.test_case "virtual" `Quick test_clock_virtual;
          Alcotest.test_case "monotonized" `Quick test_clock_monotonized;
          Alcotest.test_case "run_clocked virtual = run" `Quick
            test_run_clocked_virtual_matches_run;
          Alcotest.test_case "run_clocked real catchup" `Quick
            test_run_clocked_real_fires_on_catchup;
        ] );
      ( "trace",
        [
          Alcotest.test_case "record/find" `Quick test_trace_record_and_find;
          Alcotest.test_case "capacity" `Quick test_trace_capacity;
          Alcotest.test_case "dump format" `Quick test_trace_dump_format;
        ] );
      ( "link",
        [
          Alcotest.test_case "latency" `Quick test_link_delivers_with_latency;
          Alcotest.test_case "no receiver" `Quick test_link_no_receiver_drops;
          Alcotest.test_case "down" `Quick test_link_down;
          Alcotest.test_case "loss stats" `Quick test_link_loss_statistics;
          Alcotest.test_case "duplication" `Quick test_link_duplication;
          Alcotest.test_case "reorder" `Quick test_link_reorder;
          Alcotest.test_case "observer sees lost" `Quick test_link_observer_sees_lost_packets;
          Alcotest.test_case "inject semantics" `Quick test_link_inject_bypasses_observer_and_faults;
          Alcotest.test_case "burst loss conservation" `Quick test_link_burst_loss_conservation;
          Alcotest.test_case "burst all bad" `Quick test_link_burst_all_bad;
          Alcotest.test_case "inject while down" `Quick test_link_inject_while_down_counts_dropped;
          Alcotest.test_case "faults need prng" `Quick test_link_requires_prng_for_faults;
        ] );
    ]
