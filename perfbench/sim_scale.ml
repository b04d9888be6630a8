(* sim-scale: the whole-host simulator at 4096 SAs, in-process on one
   domain. E14's operating point (400 us gap per SA, the host reset at
   10 ms for 1 ms, 40 ms horizon) with every captured packet replayed
   at 14 ms, under the coalesced recovery discipline. *)

open Resets_util
open Resets_sim
open Resets_core
open Common

let sa_count = 4096

let config ?(reset_at = Time.of_ms 10) ?(horizon = Time.of_ms 40) () =
  {
    Multi_sa.default_config with
    Multi_sa.sa_count;
    message_gap = Time.of_us 400;
    reset_at;
    downtime = Time.of_ms 1;
    horizon;
    attack = Endpoint.Replay_all_at (Time.of_ms 14);
  }

let run_once p cfg = Multi_sa.run ~seed:p.seed ~domains:1 `Save_fetch_coalesced cfg

(* Protocol outcomes (delivered, lost, replays accepted) recorded from
   this program for seeds 0-20; any seed must also give the same
   outcome on every repetition within a run. *)
let golden =
  [
    (0, (298838, 11245, 0));
    (1, (298804, 11275, 0));
    (2, (298832, 11239, 0));
    (3, (298838, 11248, 0));
    (4, (298810, 11195, 0));
    (5, (298796, 11273, 0));
    (6, (298814, 11247, 0));
    (7, (298820, 11333, 0));
    (8, (298796, 11247, 0));
    (9, (298780, 11257, 0));
    (10, (298764, 11275, 0));
    (11, (298782, 11263, 0));
    (12, (298750, 11271, 0));
    (13, (298762, 11202, 0));
    (14, (298778, 11246, 0));
    (15, (298818, 11299, 0));
    (16, (298830, 11238, 0));
    (17, (298800, 11206, 0));
    (18, (298804, 11290, 0));
    (19, (298768, 11305, 0));
    (20, (298810, 11260, 0));
  ]

type rep = {
  o : Multi_sa.outcome;
  wall_s : float;
  cpu_s : float;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  hwm_mb : float;  (** process peak RSS after this repetition *)
  setups : float list;  (** set-up samples taken before the repetition, s *)
}

(* Set-up: building the host and its 4096 endpoints, measured as a run
   whose horizon ends before the first packet. *)
let setup_sample p =
  let instant = Time.of_ns 1L in
  Gc.compact ();
  let t0 = now_ns () in
  ignore (run_once p (config ~reset_at:instant ~horizon:instant ()));
  float_of_int (now_ns () - t0) /. 1e9

let timed p cfg =
  let setups = List.init 2 (fun _ -> setup_sample p) in
  Gc.compact ();
  let s0 = Gc.quick_stat () in
  let c0 = self_cpu () in
  let t0 = wall () in
  let o = run_once p cfg in
  let wall_s = wall () -. t0 in
  let cpu_s = self_cpu () -. c0 in
  let s1 = Gc.quick_stat () in
  {
    o;
    wall_s;
    cpu_s;
    minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
    promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
    major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    hwm_mb = self_vmhwm_mb ();
    setups;
  }

let outcome_key (o : Multi_sa.outcome) =
  (o.Multi_sa.delivered, o.messages_lost, o.replay_accepted)

let run p =
  (* a fixed number of repetitions, about six seconds each on a 2-core
     VM with their set-up samples: the peak heap grows with the count,
     so the count must not depend on how fast the machine happens to be.
     Set-up is sampled before every repetition, so that its samples
     spread over the run instead of one moment of the machine. *)
  let cfg = config () in
  let n = max 2 (int_of_float (Float.round (p.seconds /. 6.))) in
  let reps = List.init n (fun _ -> timed p cfg) in
  List.iteri
    (fun i r ->
      Printf.printf "repetition %d: %d delivered in %.3f s (%.0f packets/s), peak RSS %.1f MB\n" i
        r.o.Multi_sa.delivered r.wall_s
        (float_of_int r.o.Multi_sa.delivered /. r.wall_s)
        r.hwm_mb)
    reps;
  let first = (List.hd reps).o in
  let per_op f = median (List.map (fun r -> f r /. float_of_int r.o.Multi_sa.delivered) reps) in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let failed =
    List.fold_left
      (fun acc r ->
        let o = r.o in
        let bad =
          o.Multi_sa.replay_accepted + o.duplicate_deliveries
          + (if o.recovered_fully then 0 else 1)
          + if outcome_key o = outcome_key first then 0 else 1
        in
        if o.replay_accepted > 0 then note "%d replays accepted" o.replay_accepted;
        if o.duplicate_deliveries > 0 then note "%d duplicate deliveries" o.duplicate_deliveries;
        if not o.recovered_fully then note "not every SA recovered";
        if outcome_key o <> outcome_key first then note "outcome differs between repetitions";
        acc + bad)
      0 reps
  in
  let failed =
    match List.assoc_opt p.seed golden with
    | Some expect when expect <> outcome_key first ->
      let d, l, a = expect in
      note "outcome (delivered, lost, replay_accepted) = (%d, %d, %d), expected (%d, %d, %d)"
        first.delivered first.messages_lost first.replay_accepted d l a;
      failed + 1
    | _ -> failed
  in
  let attempted =
    sum_i (List.map (fun r -> r.o.Multi_sa.delivered + r.o.adversary_injected) reps)
  in
  Printf.printf "sim-scale: %d repetitions; delivered %d, lost %d, replays injected %d accepted %d, events %d\n%!"
    (List.length reps) first.delivered first.messages_lost first.adversary_injected
    first.replay_accepted first.events_fired;
  let gc = Gc.quick_stat () in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics =
      [
        metric "setup_s" "s" (median (List.concat_map (fun r -> r.setups) reps));
        metric "throughput" "1/s"
          (median (List.map (fun r -> float_of_int r.o.Multi_sa.delivered /. r.wall_s) reps));
        metric "cpu_us_per_op" "us" (per_op (fun r -> r.cpu_s) *. 1e6);
        metric "peak_rss_mb" "MB" (self_vmhwm_mb ());
      ];
    layer =
      [
        metric "gc.alloc_words_per_op" "words" (per_op (fun r -> r.minor_words));
        metric "sim.events" "count" (float_of_int first.events_fired);
        metric "sim.events_per_s" "1/s"
          (median (List.map (fun r -> float_of_int r.o.Multi_sa.events_fired /. r.wall_s) reps));
        metric "ipsec.replays_rejected" "count"
          (float_of_int (first.adversary_injected - first.replay_accepted));
        metric "persist.disk_writes" "count" (float_of_int first.disk_writes);
        metric "attack.replays_injected" "count" (float_of_int first.adversary_injected);
        metric "gc.minor_collections" "count"
          (median (List.map (fun r -> float_of_int r.minor_collections) reps));
        metric "gc.major_collections" "count"
          (median (List.map (fun r -> float_of_int r.major_collections) reps));
        metric "gc.promoted_words_per_op" "words" (per_op (fun r -> r.promoted_words));
        metric "gc.top_heap_mb" "MB"
          (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
      ];
    notes = List.rev !notes;
    env = [ ("sa_count", Json.Int sa_count); ("domains", Json.Int 1); ("delivered", Json.Int first.delivered) ];
  }

