(* apn-explore: the explorer over the eight E11 models, each with the
   verdict the paper (and E11) expects. The seed sets the order in
   which a pass visits the models; the models themselves are fixed. *)

open Resets_util
open Resets_apn
open Common

type row = {
  name : string;
  expect_violation : bool;
  build : unit -> System.t;
  invariant : System.t -> bool;
}

let max_states = 600_000

let rows =
  let b ~p ~q = Models.{ s_max = 3; p_resets = p; q_resets = q } in
  let leap_bounds = Models.{ s_max = 5; p_resets = 1; q_resets = 0 } in
  let leap name leap expect_violation =
    {
      name;
      expect_violation;
      build =
        (fun () ->
          Models.augmented_system ~bounds:leap_bounds ~capacity:2 ?leap_p:leap ~kp:2 ~kq:2
            ~w:2 ());
      invariant = Models.sender_freshness_holds;
    }
  in
  [
    {
      name = "original, q resets, adversary";
      expect_violation = true;
      build =
        (fun () ->
          Models.original_system ~bounds:(b ~p:0 ~q:1) ~capacity:2 ~adversary:true ~w:2 ());
      invariant = Models.discrimination_holds;
    };
    {
      name = "augmented, p resets, adversary";
      expect_violation = false;
      build =
        (fun () ->
          Models.augmented_system ~bounds:(b ~p:1 ~q:0) ~capacity:2 ~adversary:true ~kp:1
            ~kq:1 ~w:2 ());
      invariant = Models.all_section5_invariants;
    };
    {
      name = "augmented, q resets, no adversary";
      expect_violation = false;
      build =
        (fun () ->
          Models.augmented_system ~bounds:(b ~p:0 ~q:2) ~capacity:6 ~kp:1 ~kq:1 ~w:2 ());
      invariant = Models.all_section5_invariants;
    };
    {
      name = "augmented, both reset, adversary";
      expect_violation = true;
      build =
        (fun () ->
          Models.augmented_system ~bounds:(b ~p:1 ~q:1) ~capacity:2 ~adversary:true ~kp:1
            ~kq:1 ~w:2 ());
      invariant = Models.all_section5_invariants;
    };
    {
      name = "robust receiver, both reset, adversary";
      expect_violation = false;
      build =
        (fun () ->
          Models.augmented_system ~bounds:(b ~p:1 ~q:1) ~capacity:2 ~adversary:true
            ~robust:true ~kp:1 ~kq:1 ~w:2 ());
      invariant = Models.all_section5_invariants;
    };
    leap "sender leap = 2K (the paper's)" None false;
    leap "sender leap = K (ablation)" (Some 2) true;
    leap "sender leap = 0 (ablation)" (Some 0) true;
  ]

let ordered p =
  let a = Array.of_list rows in
  Prng.shuffle (prng p ~stream:3) a;
  Array.to_list a

let states_of = function
  | Explorer.Exhausted { states } | Explorer.Limit_reached { states } -> states
  | Explorer.Violation { states; _ } -> states

type pass = {
  states : int;
  wall_s : float;
  cpu_s : float;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  wrong : string list;  (** rows whose verdict differs from the expected one *)
  setups : float list;  (** set-up samples taken before the pass, s *)
}

(* Set-up: building the eight models. One build of all eight takes
   tens of microseconds, so a sample times 50 and reports their mean. *)
let setup_sample models =
  let builds = 50 in
  let t0 = now_ns () in
  for _ = 1 to builds do
    List.iter (fun r -> ignore (r.build ())) models
  done;
  float_of_int (now_ns () - t0) /. 1e9 /. float_of_int builds

let pass p =
  let models = ordered p in
  let setups = List.init 5 (fun _ -> setup_sample models) in
  let systems = List.map (fun r -> (r, r.build ())) models in
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let c0 = self_cpu () in
  let t0 = wall () in
  let outcomes =
    List.map (fun (r, sys) -> (r, Explorer.explore ~max_states ~invariant:r.invariant sys)) systems
  in
  let wall_s = wall () -. t0 in
  let cpu_s = self_cpu () -. c0 in
  let s1 = Gc.quick_stat () in
  let wrong =
    List.filter_map
      (fun (r, o) ->
        let violated = match o with Explorer.Violation _ -> true | _ -> false in
        if violated = r.expect_violation then None
        else Some (Printf.sprintf "%s: expected %s" r.name (if r.expect_violation then "VIOLATED" else "holds")))
      outcomes
  in
  {
    states = sum_i (List.map (fun (_, o) -> states_of o) outcomes);
    wall_s;
    cpu_s;
    minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
    promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
    major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    wrong;
    setups;
  }

let run p =
  (* passes of about three seconds each on a 2-core VM; set-up is
     sampled before every pass, so that its samples spread over the run
     instead of one moment of a machine whose speed drifts *)
  let passes = repeat_for p.seconds (fun () -> pass p) in
  List.iteri
    (fun i ps ->
      Printf.printf "pass %d: %d states in %.3f s (%.0f states/s)\n" i ps.states ps.wall_s
        (float_of_int ps.states /. ps.wall_s))
    passes;
  let per_state f = median (List.map (fun ps -> f ps /. float_of_int ps.states) passes) in
  let wrong = List.concat_map (fun ps -> ps.wrong) passes in
  let gc = Gc.quick_stat () in
  Printf.printf "apn-explore: %d passes of %d states\n%!" (List.length passes)
    (List.hd passes).states;
  {
    correct = wrong = [];
    attempted = List.length rows * List.length passes;
    failed = List.length wrong;
    metrics =
      [
        metric "setup_s" "s" (median (List.concat_map (fun ps -> ps.setups) passes));
        metric "throughput" "1/s"
          (median (List.map (fun ps -> float_of_int ps.states /. ps.wall_s) passes));
        metric "cpu_us_per_op" "us" (per_state (fun ps -> ps.cpu_s) *. 1e6);
        metric "peak_rss_mb" "MB" (self_vmhwm_mb ());
      ];
    layer =
      [
        metric "gc.alloc_words_per_op" "words" (per_state (fun ps -> ps.minor_words));
        metric "gc.minor_collections" "count"
          (median (List.map (fun ps -> float_of_int ps.minor_collections) passes));
        metric "gc.major_collections" "count"
          (median (List.map (fun ps -> float_of_int ps.major_collections) passes));
        metric "gc.promoted_words_per_op" "words" (per_state (fun ps -> ps.promoted_words));
        metric "gc.top_heap_mb" "MB"
          (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
      ];
    notes = wrong;
    env = [ ("models", Json.Int (List.length rows)); ("max_states", Json.Int max_states) ];
  }
