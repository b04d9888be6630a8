(* APN interpreter + model-checking tests.

   The headline cases machine-check the paper's Section 5 claims on
   small bounds, and document the combined-reset corner case our
   explorer uncovered (see DESIGN.md §5 and EXPERIMENTS.md E11). *)

open Resets_apn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Value / State *)

let test_value_accessors () =
  check_int "int" 5 (Value.int (Value.Int 5));
  check_bool "bool" true (Value.bool (Value.Bool true));
  Alcotest.check_raises "type error" (Value.Type_error "expected int") (fun () ->
      ignore (Value.int (Value.Bool true)))

let test_value_canonical_copies_arrays () =
  let a = [| true; false |] in
  let v = Value.canonical (Value.Bool_array a) in
  a.(0) <- false;
  check_bool "copy isolated" true (Value.bool_array v).(0)

let test_state_get_set () =
  let st = State.create [ ("x", Value.Int 1); ("b", Value.Bool false) ] in
  check_int "get" 1 (State.get_int st "x");
  State.set_int st "x" 9;
  check_int "set" 9 (State.get_int st "x");
  Alcotest.check_raises "undeclared" Not_found (fun () -> State.set_int st "nope" 1)

let test_state_snapshot_restore () =
  let sys =
    System.create
      [
        Process.make ~name:"p"
          ~init:[ ("x", Value.Int 1); ("a", Value.Bool_array [| false |]) ]
          ~actions:[];
      ]
  in
  let snap = System.snapshot sys in
  let st = System.state_of sys "p" in
  State.set_int st "x" 99;
  (State.get_bool_array st "a").(0) <- true;
  System.restore sys snap;
  check_int "x restored" 1 (State.get_int st "x");
  check_bool "array restored" false (State.get_bool_array st "a").(0)

let test_state_snapshot_sorted_and_deep () =
  let st = State.create [ ("z", Value.Int 1); ("a", Value.Int 2) ] in
  let names = List.map fst (State.snapshot st) in
  Alcotest.(check (list string)) "sorted" [ "a"; "z" ] names

let test_state_duplicate_rejected () =
  Alcotest.check_raises "dup" (Invalid_argument "State.create: duplicate variable x")
    (fun () -> ignore (State.create [ ("x", Value.Int 1); ("x", Value.Int 2) ]))

(* ------------------------------------------------------------------ *)
(* Network *)

let test_network_fifo () =
  let n = Network.create () in
  Network.send n ~src:"p" ~dst:"q" (Message.msg 1);
  Network.send n ~src:"p" ~dst:"q" (Message.msg 2);
  check_int "queue length" 2 (Network.queue_length n ~src:"p" ~dst:"q");
  Alcotest.(check (option int)) "fifo head"
    (Some 1)
    (Option.map (fun m -> List.hd m.Message.args) (Network.receive n ~src:"p" ~dst:"q"));
  Alcotest.(check (option int)) "fifo second"
    (Some 2)
    (Option.map (fun m -> List.hd m.Message.args) (Network.receive n ~src:"p" ~dst:"q"));
  check_bool "empty" true (Network.receive n ~src:"p" ~dst:"q" = None)

let test_network_capacity () =
  let n = Network.create ~capacity:1 () in
  Network.send n ~src:"p" ~dst:"q" (Message.msg 1);
  check_bool "full" false (Network.can_send n ~src:"p" ~dst:"q");
  Alcotest.check_raises "overfull" (Invalid_argument "Network.send: channel full")
    (fun () -> Network.send n ~src:"p" ~dst:"q" (Message.msg 2));
  check_bool "inject full returns false" false
    (Network.inject n ~src:"p" ~dst:"q" (Message.msg 3))

let test_network_history () =
  let n = Network.create ~record_history:true () in
  Network.send n ~src:"p" ~dst:"q" (Message.msg 1);
  Network.send n ~src:"p" ~dst:"q" (Message.msg 2);
  Network.send n ~src:"p" ~dst:"q" (Message.msg 1);
  (* duplicate collapsed *)
  check_int "distinct history" 2 (List.length (Network.history n ~src:"p" ~dst:"q"));
  (* injections are not recorded *)
  ignore (Network.inject n ~src:"p" ~dst:"q" (Message.msg 9));
  check_int "inject unrecorded" 2 (List.length (Network.history n ~src:"p" ~dst:"q"))

let test_network_drop_head () =
  let n = Network.create () in
  Network.send n ~src:"p" ~dst:"q" (Message.msg 1);
  ignore (Network.drop_head n ~src:"p" ~dst:"q");
  check_int "dropped" 0 (Network.queue_length n ~src:"p" ~dst:"q")

(* ------------------------------------------------------------------ *)
(* System execution *)

let tiny_bounds = Models.{ s_max = 3; p_resets = 0; q_resets = 0 }

let test_system_in_order_delivery () =
  (* No faults: running the original protocol delivers 1..s_max exactly
     once (w-Delivery + Discrimination on a perfect channel). *)
  let sys = Models.original_system ~bounds:tiny_bounds ~w:2 () in
  let prng = Resets_util.Prng.create 5 in
  ignore (System.run_random prng ~steps:1000 sys);
  let q = System.state_of sys "q" in
  check_bool "no dup" true (Models.discrimination_holds sys);
  check_int "all delivered" 3
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0
       (State.get_bool_array q "dlv"))

let test_system_enabled_steps_deterministic_order () =
  let sys = Models.original_system ~bounds:tiny_bounds ~w:2 () in
  let a = List.map System.step_label (System.enabled_steps sys) in
  let b = List.map System.step_label (System.enabled_steps sys) in
  Alcotest.(check (list string)) "stable" a b

let test_system_execute_disabled_rejected () =
  let sys = Models.original_system ~bounds:tiny_bounds ~w:2 () in
  (* q.rcv is disabled while the channel is empty: index 0 is receive *)
  let disabled =
    System.Proc_action { proc = "q"; index = 0; label = "rcv" }
  in
  Alcotest.check_raises "disabled"
    (Invalid_argument "System.execute: disabled step q.rcv") (fun () ->
      System.execute sys disabled)

let test_system_snapshot_restore_roundtrip () =
  let sys = Models.original_system ~bounds:tiny_bounds ~w:2 () in
  let snap0 = System.snapshot sys in
  let prng = Resets_util.Prng.create 1 in
  ignore (System.run_random prng ~steps:50 sys);
  let snap1 = System.snapshot sys in
  check_bool "progressed" false (System.snapshot_equal snap0 snap1);
  System.restore sys snap0;
  check_bool "restored" true (System.snapshot_equal snap0 (System.snapshot sys))

let test_builders_reject_out_of_range () =
  let rejects build =
    match build () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "original, w = 0" true (rejects (fun () -> Models.original_system ~w:0 ()));
  check_bool "augmented, w = 0" true
    (rejects (fun () -> Models.augmented_system ~kp:1 ~kq:1 ~w:0 ()));
  check_bool "augmented, kp = 0" true
    (rejects (fun () -> Models.augmented_system ~kp:0 ~kq:1 ~w:1 ()));
  check_bool "augmented, kq = 0" true
    (rejects (fun () -> Models.augmented_system ~kp:1 ~kq:0 ~w:1 ()))

let test_system_random_run_deterministic () =
  let run seed =
    let sys = Models.original_system ~bounds:tiny_bounds ~w:2 () in
    let prng = Resets_util.Prng.create seed in
    ignore (System.run_random prng ~steps:200 sys);
    System.snapshot sys
  in
  check_bool "same seed same state" true (System.snapshot_equal (run 3) (run 3))

(* ------------------------------------------------------------------ *)
(* Explorer: Section 5 machine-checked on small bounds *)

let explore ?(max_states = 400_000) sys invariant =
  Explorer.explore ~max_states ~invariant sys

let is_violation = function
  | Explorer.Violation _ -> true
  | Explorer.Exhausted _ | Explorer.Limit_reached _ -> false

let is_exhausted_ok = function
  | Explorer.Exhausted _ -> true
  | Explorer.Violation _ | Explorer.Limit_reached _ -> false

let test_original_protocol_safe_without_resets () =
  (* With no resets, even the replay adversary cannot force a duplicate
     delivery: the window protocol's own guarantee. *)
  let bounds = Models.{ s_max = 3; p_resets = 0; q_resets = 0 } in
  let sys = Models.original_system ~bounds ~capacity:2 ~adversary:true ~w:2 () in
  check_bool "exhausted, invariant holds" true
    (is_exhausted_ok (explore sys Models.discrimination_holds))

let test_original_protocol_broken_by_receiver_reset () =
  (* Section 3, paragraph 1: reset q, replay, duplicate delivery. *)
  let bounds = Models.{ s_max = 4; p_resets = 0; q_resets = 1 } in
  let sys = Models.original_system ~bounds ~capacity:2 ~adversary:true ~w:2 () in
  match explore sys Models.discrimination_holds with
  | Explorer.Violation { trace; _ } ->
    check_bool "trace mentions a reset" true
      (List.exists (fun l -> l = "q.reset") trace);
    check_bool "trace mentions a replay" true
      (List.exists (fun l -> String.length l >= 6 && String.sub l 0 6 = "replay") trace)
  | Explorer.Exhausted _ | Explorer.Limit_reached _ ->
    Alcotest.fail "expected a Discrimination violation"

let test_augmented_sender_resets_safe () =
  (* Theorem (i): sender resets never violate Section 5 invariants,
     even with the adversary replaying. *)
  let bounds = Models.{ s_max = 3; p_resets = 1; q_resets = 0 } in
  let sys =
    Models.augmented_system ~bounds ~capacity:2 ~adversary:true ~kp:1 ~kq:1 ~w:2 ()
  in
  check_bool "exhausted, invariants hold" true
    (is_exhausted_ok (explore sys Models.all_section5_invariants))

let test_augmented_receiver_resets_safe_without_jumps () =
  (* Theorem (ii) under the paper's implicit dense-arrival assumption:
     no adversary, ample channel capacity, receiver resets only. *)
  let bounds = Models.{ s_max = 4; p_resets = 0; q_resets = 2 } in
  let sys = Models.augmented_system ~bounds ~capacity:6 ~kp:1 ~kq:1 ~w:2 () in
  check_bool "exhausted, invariants hold" true
    (is_exhausted_ok (explore sys Models.all_section5_invariants))

let test_combined_resets_find_the_corner_case () =
  (* The case the paper calls "straightforward to verify": with both
     hosts resetting and the adversary active, the receiver's right
     edge can jump more than Kq in one receive; a reset during the
     in-flight SAVE then recovers a stale edge. Our explorer finds it. *)
  let bounds = Models.{ s_max = 3; p_resets = 1; q_resets = 1 } in
  let sys =
    Models.augmented_system ~bounds ~capacity:2 ~adversary:true ~kp:1 ~kq:1 ~w:2 ()
  in
  match explore sys Models.all_section5_invariants with
  | Explorer.Violation { trace; _ } ->
    (* E11's combined_reset_counterexample, step for step *)
    Alcotest.(check (list string))
      "shortest trace"
      [
        "p.reset"; "p.wakeup_begin"; "p.wakeup_done"; "p.send"; "q.rcv"; "q.reset";
        "q.wakeup_begin"; "q.wakeup_done";
      ]
      trace
  | Explorer.Exhausted _ | Explorer.Limit_reached _ -> Alcotest.fail "expected a violation"

let test_robust_receiver_closes_the_corner_case () =
  let bounds = Models.{ s_max = 3; p_resets = 1; q_resets = 1 } in
  let sys =
    Models.augmented_system ~bounds ~capacity:2 ~adversary:true ~robust:true ~kp:1
      ~kq:1 ~w:2 ()
  in
  check_bool "exhausted, invariants hold" true
    (is_exhausted_ok (explore sys Models.all_section5_invariants))

let test_leap_two_k_is_tight () =
  (* Section 5's choice of 2K: leap = 2K is exhaustively verified and
     leap = K (or 0) is refuted, with Kp = 2 so a reset can land
     mid-interval. That does not make 2K tight: leap 2K - 1 holds at
     these bounds too (pinned with the E11 rows below). *)
  let bounds = Models.{ s_max = 5; p_resets = 1; q_resets = 0 } in
  let explore_leap leap =
    explore ~max_states:500_000
      (Models.augmented_system ~bounds ~capacity:2 ?leap_p:leap ~kp:2 ~kq:2 ~w:2 ())
      Models.sender_freshness_holds
  in
  check_bool "2K verified" true (is_exhausted_ok (explore_leap None));
  check_bool "K refuted" true (is_violation (explore_leap (Some 2)));
  check_bool "0 refuted" true (is_violation (explore_leap (Some 0)))

let test_explorer_limit_reached () =
  let bounds = Models.{ s_max = 6; p_resets = 1; q_resets = 1 } in
  let sys = Models.augmented_system ~bounds ~capacity:3 ~kp:2 ~kq:2 ~w:3 () in
  match Explorer.explore ~max_states:50 ~invariant:(fun _ -> true) sys with
  | Explorer.Limit_reached { states } -> check_int "stopped at budget" 50 states
  | Explorer.Exhausted _ | Explorer.Violation _ -> Alcotest.fail "expected limit"

let test_explorer_restores_initial_state () =
  let bounds = Models.{ s_max = 3; p_resets = 0; q_resets = 0 } in
  let sys = Models.original_system ~bounds ~w:2 () in
  let before = System.snapshot sys in
  ignore (explore sys Models.discrimination_holds);
  check_bool "restored" true (System.snapshot_equal before (System.snapshot sys))

let test_replay_reproduces_counterexample () =
  (* a counterexample trace replays to a state violating the invariant *)
  let bounds = Models.{ s_max = 4; p_resets = 0; q_resets = 1 } in
  let sys = Models.original_system ~bounds ~capacity:2 ~adversary:true ~w:2 () in
  (match explore sys Models.discrimination_holds with
  | Explorer.Violation { trace; _ } -> begin
    match Explorer.replay sys trace with
    | Ok () ->
      check_bool "end state violates" false (Models.discrimination_holds sys)
    | Error m -> Alcotest.failf "replay failed: %s" m
  end
  | Explorer.Exhausted _ | Explorer.Limit_reached _ -> Alcotest.fail "expected violation")

let test_replay_rejects_bogus_trace () =
  let sys = Models.original_system ~bounds:tiny_bounds ~w:2 () in
  check_bool "bogus label" true
    (Result.is_error (Explorer.replay sys [ "p.send"; "q.frobnicate" ]))

let test_explorer_immediate_violation () =
  let sys = Models.original_system ~bounds:tiny_bounds ~w:2 () in
  match Explorer.explore ~max_states:10 ~invariant:(fun _ -> false) sys with
  | Explorer.Violation { trace; _ } -> check_int "empty trace" 0 (List.length trace)
  | Explorer.Exhausted _ | Explorer.Limit_reached _ -> Alcotest.fail "expected violation"

(* E11's eight rows (bench/main.ml), built as E11 builds them, with
   their verdicts and exact state counts: a snapshot encoding that
   merged or split states would change a count even where the verdict
   survives. Each violating row also pins its shortest trace, which the
   explorer rebuilds from parent pointers and step indices. *)
let e11_rows =
  let b ~p ~q = Models.{ s_max = 3; p_resets = p; q_resets = q } in
  let augmented ?robust ?(adversary = true) ?(capacity = 2) ~p ~q () =
    Models.augmented_system ~bounds:(b ~p ~q) ~capacity ~adversary ?robust ~kp:1 ~kq:1
      ~w:2 ()
  in
  let leap leap_p () =
    Models.augmented_system
      ~bounds:Models.{ s_max = 5; p_resets = 1; q_resets = 0 }
      ~capacity:2 ?leap_p ~kp:2 ~kq:2 ~w:2 ()
  in
  let s5 = Models.all_section5_invariants and fresh = Models.sender_freshness_holds in
  [
    ( ( "original, q resets, adversary",
        (fun () ->
          Models.original_system ~bounds:(b ~p:0 ~q:1) ~capacity:2 ~adversary:true ~w:2 ()),
        Models.discrimination_holds, true, 49 ),
      Some [ "p.send"; "q.rcv"; "q.reset"; "replay(p->q, msg(1))"; "q.rcv" ] );
    (("augmented, p resets, adversary", (fun () -> augmented ~p:1 ~q:0 ()), s5, false, 1120), None);
    ( ( "augmented, q resets, no adversary",
        (fun () -> augmented ~adversary:false ~capacity:6 ~p:0 ~q:2 ()),
        s5, false, 474 ),
      None );
    ( ("augmented, both reset, adversary", (fun () -> augmented ~p:1 ~q:1 ()), s5, true, 1318),
      Some
        [
          "p.reset"; "p.wakeup_begin"; "p.wakeup_done"; "p.send"; "q.rcv"; "q.reset";
          "q.wakeup_begin"; "q.wakeup_done";
        ] );
    ( ( "robust receiver, both reset, adversary",
        (fun () -> augmented ~robust:true ~p:1 ~q:1 ()),
        s5, false, 5694 ),
      None );
    (("sender leap = 2K (the paper's)", leap None, fresh, false, 647), None);
    ( ("sender leap = K (ablation)", leap (Some 2), fresh, true, 65),
      Some [ "p.send"; "p.send"; "p.send"; "p.reset"; "p.wakeup_begin"; "p.wakeup_done" ] );
    ( ("sender leap = 0 (ablation)", leap (Some 0), fresh, true, 25),
      Some [ "p.send"; "p.reset"; "p.wakeup_begin"; "p.wakeup_done" ] );
  ]

(* Rows that are not part of E11. Theorem (ii) under loss: a channel of
   capacity 2 overflows, so one q reset with no adversary breaks the
   paper's receiver, and the robust receiver holds. A leap of 2K - 1,
   which holds at E11's leap bounds: the leap rows show that 2K holds,
   not that it is tight. And a deeper robust space than E11's, with
   the adversary and lossy channels both on, so that Replay and Drop
   steps run over longer histories. *)
let beyond_e11_rows =
  let loss robust () =
    Models.augmented_system
      ~bounds:Models.{ s_max = 7; p_resets = 0; q_resets = 1 }
      ~capacity:2 ~robust ~kp:1 ~kq:1 ~w:2 ()
  in
  let s5 = Models.all_section5_invariants in
  [
    ( ("not E11: one q reset, overflow loss", loss false, s5, true, 1136),
      Some
        [
          "p.send"; "p.send"; "p.send"; "p.send"; "q.rcv"; "p.send"; "q.rcv"; "q.rcv";
          "q.reset"; "q.wakeup_begin"; "q.wakeup_done";
        ] );
    (("not E11: one q reset, overflow loss, robust", loss true, s5, false, 4408), None);
    ( ( "not E11: sender leap = 2K - 1",
        (fun () ->
          Models.augmented_system
            ~bounds:Models.{ s_max = 5; p_resets = 1; q_resets = 0 }
            ~capacity:2 ~leap_p:3 ~kp:2 ~kq:2 ~w:2 ()),
        Models.sender_freshness_holds, false, 718 ),
      None );
    ( ( "not E11: robust, adversary and lossy, s_max 4",
        (fun () ->
          Models.augmented_system
            ~bounds:Models.{ s_max = 4; p_resets = 1; q_resets = 1 }
            ~capacity:2 ~adversary:true ~lossy:true ~robust:true ~kp:1 ~kq:1 ~w:2 ()),
        s5, false, 70_734 ),
      None );
  ]

let pin ((name, build, invariant, violated, states), trace) =
  let outcome = explore ~max_states:600_000 (build ()) invariant in
  let got_violated, got_states =
    match outcome with
    | Explorer.Violation { states; _ } -> (true, states)
    | Explorer.Exhausted { states } -> (false, states)
    | Explorer.Limit_reached _ -> Alcotest.failf "%s: state budget reached" name
  in
  check_bool (name ^ ": violated") violated got_violated;
  check_int (name ^ ": states") states got_states;
  match (outcome, trace) with
  | Explorer.Violation { trace = got; _ }, Some trace ->
    Alcotest.(check (list string)) (name ^ ": shortest trace") trace got
  | _ -> ()

let test_e11_state_space_pinned () = List.iter pin (e11_rows @ beyond_e11_rows)

(* ------------------------------------------------------------------ *)
(* Snapshot properties over random walks with the adversary on. *)

let walk_system ~model ~lossy =
  let bounds = Models.{ s_max = 4; p_resets = 1; q_resets = 1 } in
  match model with
  | 0 -> Models.original_system ~bounds ~capacity:2 ~adversary:true ~lossy ~w:2 ()
  | 1 -> Models.augmented_system ~bounds ~capacity:2 ~adversary:true ~lossy ~kp:1 ~kq:1 ~w:2 ()
  | _ ->
    Models.augmented_system ~bounds ~capacity:2 ~adversary:true ~lossy ~robust:true ~kp:1
      ~kq:1 ~w:2 ()

let labels sys = List.map System.step_label (System.enabled_steps sys)

let snapshot_restore_property =
  QCheck.Test.make ~name:"snapshot: restore then snapshot is the identity" ~count:60
    QCheck.(triple (int_range 0 2) bool (int_range 0 10_000))
    (fun (model, lossy, seed) ->
      let sys = walk_system ~model ~lossy in
      let prng = Resets_util.Prng.create seed in
      let taken =
        List.init 150 (fun _ ->
            let seen = (System.snapshot sys, labels sys) in
            ignore (System.step_random prng sys);
            seen)
      in
      (* restored in reverse: each restore undoes a later state *)
      List.for_all
        (fun (snap, seen) ->
          System.restore sys snap;
          System.snapshot_equal snap (System.snapshot sys) && labels sys = seen)
        (List.rev taken)
      && List.for_all
           (fun (a, _) ->
             List.for_all
               (fun (b, _) ->
                 (not (System.snapshot_equal a b))
                 || System.snapshot_hash a = System.snapshot_hash b)
               taken)
           taken)

(* Restoring one snapshot over and over, as the explorer does once per
   successor: the first restore decodes it, the later ones rebuild the
   state from a kept copy. The rebuild must undo whatever a step did
   since, and must share nothing mutable with the state it builds. *)

let find_step sys label =
  List.find (fun s -> String.equal (System.step_label s) label) (System.enabled_steps sys)

let test_restore_undoes_each_initial_step () =
  let sys = walk_system ~model:2 ~lossy:true in
  let initial = System.snapshot sys in
  System.restore sys initial;
  (* the first enabled_steps creates the p->q channel (q's receive
     guard peeks at it), after the decode; p.send then fills it *)
  let steps = System.enabled_steps sys in
  check_bool "p.send enabled" true
    (List.exists (fun s -> String.equal (System.step_label s) "p.send") steps);
  List.iter
    (fun step ->
      let label = System.step_label step in
      System.restore sys initial;
      System.execute sys step;
      System.restore sys initial;
      check_bool (label ^ ": undone") true (System.snapshot_equal initial (System.snapshot sys));
      check_int (label ^ ": p->q queue") 0
        (Network.queue_length (System.network sys) ~src:"p" ~dst:"q");
      check_int (label ^ ": p->q history") 0
        (List.length (Network.history (System.network sys) ~src:"p" ~dst:"q")))
    steps

let test_restore_undoes_array_flips () =
  let sys = walk_system ~model:2 ~lossy:true in
  System.execute sys (find_step sys "p.send");
  let parent = System.snapshot sys in
  System.restore sys parent;
  let q = System.state_of sys "q" in
  let arrays () =
    (Array.copy (State.get_bool_array q "wdw"), Array.copy (State.get_bool_array q "dlv"))
  in
  let before = arrays () in
  for round = 1 to 3 do
    let name what = Printf.sprintf "round %d: %s" round what in
    System.execute sys (find_step sys "q.rcv");
    check_bool (name "q.rcv flips an element") false (arrays () = before);
    System.restore sys parent;
    check_bool (name "snapshot restored") true
      (System.snapshot_equal parent (System.snapshot sys));
    check_bool (name "arrays restored") true (arrays () = before)
  done

let test_restore_shares_no_array () =
  let sys = walk_system ~model:2 ~lossy:true in
  System.execute sys (find_step sys "p.send");
  System.execute sys (find_step sys "q.rcv");
  let snap = System.snapshot sys in
  let q = System.state_of sys "q" in
  let dlv = Array.copy (State.get_bool_array q "dlv") in
  (* the first restore decodes, the second and third rebuild *)
  for round = 1 to 3 do
    let name what = Printf.sprintf "round %d: %s" round what in
    System.restore sys snap;
    let live = State.get_bool_array q "dlv" in
    Alcotest.(check (array bool)) (name "restored") dlv live;
    Array.iteri (fun i b -> live.(i) <- not b) live;
    check_bool (name "the mutation is live") false
      (System.snapshot_equal snap (System.snapshot sys))
  done;
  System.restore sys snap;
  check_bool "kept copy untouched" true (System.snapshot_equal snap (System.snapshot sys));
  Alcotest.(check (array bool)) "dlv" dlv (State.get_bool_array q "dlv")

let test_snapshot_outgrows_its_buffer () =
  (* 50 messages queued and 50 in the history: a snapshot several
     times the size of the buffer a system starts encoding into *)
  let bounds = Models.{ s_max = 60; p_resets = 0; q_resets = 0 } in
  let sys = Models.original_system ~bounds ~capacity:60 ~adversary:true ~w:2 () in
  let initial = System.snapshot sys in
  for _ = 1 to 50 do
    System.execute sys (find_step sys "p.send")
  done;
  let full = System.snapshot sys in
  System.restore sys initial;
  System.restore sys full;
  check_bool "round trip" true (System.snapshot_equal full (System.snapshot sys));
  let net = System.network sys in
  check_int "queue" 50 (Network.queue_length net ~src:"p" ~dst:"q");
  Alcotest.(check (list int))
    "history" (List.init 50 (fun i -> i + 1))
    (List.map (fun (m : Message.t) -> List.hd m.args) (Network.history net ~src:"p" ~dst:"q"))

let kept_copy_property =
  QCheck.Test.make ~name:"snapshot: restores of one snapshot interleaved with others"
    ~count:40
    QCheck.(triple (int_range 0 2) bool (int_range 0 10_000))
    (fun (model, lossy, seed) ->
      let sys = walk_system ~model ~lossy in
      let prng = Resets_util.Prng.create seed in
      let taken =
        Array.init 60 (fun _ ->
            let seen = (System.snapshot sys, labels sys) in
            ignore (System.step_random prng sys);
            seen)
      in
      let fixed = taken.(Resets_util.Prng.int prng (Array.length taken)) in
      (* half the restores are of [fixed], so its kept copy is rebuilt
         from, then replaced by another decode, then decoded again; a
         random step after each gives the next restore something to
         undo *)
      let ok = ref true in
      for _ = 1 to 300 do
        let snap, seen =
          if Resets_util.Prng.bool prng then fixed
          else taken.(Resets_util.Prng.int prng (Array.length taken))
        in
        System.restore sys snap;
        ok := !ok && System.snapshot_equal snap (System.snapshot sys) && labels sys = seen;
        ignore (System.step_random prng sys)
      done;
      !ok)

(* Encoding a successor copies the bytes of every process and channel
   the step left as the kept copy has them, and decoding skips those a
   snapshot shares with the last one decoded. A walk taken before the
   system's first restore (so with no kept copy to copy or skip from)
   is the reference: restoring each of its states, after a restore of
   some other state, and taking the same step must give the same
   bytes. *)
let successor_encoding_property =
  QCheck.Test.make ~name:"snapshot: a successor encodes as without a kept copy" ~count:40
    QCheck.(triple (int_range 0 2) bool (int_range 0 10_000))
    (fun (model, lossy, seed) ->
      let sys = walk_system ~model ~lossy in
      let prng = Resets_util.Prng.create seed in
      let walk =
        Array.of_list
          (List.filter_map
             (fun _ ->
               let before = System.snapshot sys in
               match System.step_random prng sys with
               | None -> None
               | Some step -> Some (before, System.step_label step, System.snapshot sys))
             (List.init 80 Fun.id))
      in
      Array.for_all
        (fun (before, label, after) ->
          let other, _, _ = walk.(Resets_util.Prng.int prng (Array.length walk)) in
          System.restore sys other;
          System.restore sys before;
          System.execute sys (find_step sys label);
          System.encode sys;
          System.encoded_equal sys after
          && System.encoded_hash sys = System.snapshot_hash after
          && System.snapshot_equal after (System.snapshot sys))
        walk)

module Snapshots = Hashtbl.Make (struct
  type t = System.snapshot

  let equal = System.snapshot_equal
  let hash = System.snapshot_hash
end)

let snapshot_hash_spread_property =
  QCheck.Test.make ~name:"snapshot: distinct robust states hash apart" ~count:3
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let sys = walk_system ~model:2 ~lossy:true in
      let initial = System.snapshot sys in
      let prng = Resets_util.Prng.create seed in
      let states = Snapshots.create 2048 in
      let walks = ref 0 in
      while Snapshots.length states < 1000 && !walks < 1000 do
        incr walks;
        System.restore sys initial;
        for _ = 1 to 40 do
          ignore (System.step_random prng sys);
          Snapshots.replace states (System.snapshot sys) ()
        done
      done;
      let hashes = Hashtbl.create 2048 in
      Snapshots.iter (fun s () -> Hashtbl.replace hashes (System.snapshot_hash s) ()) states;
      Snapshots.length states >= 1000
      && float_of_int (Hashtbl.length hashes)
         >= 0.99 *. float_of_int (Snapshots.length states))

(* ------------------------------------------------------------------ *)
(* Probing the encode buffer: the explorer hashes and compares a
   successor where it was encoded and copies out only a new state. *)

let test_buffer_hash_is_snapshot_hash () =
  let sys = walk_system ~model:2 ~lossy:true in
  let prng = Resets_util.Prng.create 7 in
  for step = 1 to 200 do
    System.encode sys;
    let buffered = System.encoded_hash sys in
    let snap = System.snapshot sys in
    check_int (Printf.sprintf "step %d: hash" step) (System.snapshot_hash snap) buffered;
    check_bool (Printf.sprintf "step %d: non-negative" step) true (buffered >= 0);
    check_bool (Printf.sprintf "step %d: copy" step) true
      (System.snapshot_equal snap (System.encoded sys));
    ignore (System.step_random prng sys)
  done

let test_buffer_equality_in_place () =
  let sys = walk_system ~model:2 ~lossy:true in
  let initial = System.snapshot sys in
  System.execute sys (find_step sys "p.send");
  let sent = System.snapshot sys in
  System.execute sys (find_step sys "q.rcv");
  let received = System.snapshot sys in
  System.encode sys;
  check_bool "equal to its own snapshot" true (System.encoded_equal sys received);
  check_bool "unequal to an earlier state" false (System.encoded_equal sys sent);
  check_bool "unequal to the initial state" false (System.encoded_equal sys initial);
  System.restore sys sent;
  System.encode sys;
  check_bool "after a restore" true (System.encoded_equal sys sent)

(* Encoding, hashing and comparing in place allocate nothing: a
   successor that was seen before costs no string. *)
let test_probe_allocates_nothing () =
  let sys = walk_system ~model:2 ~lossy:true in
  let prng = Resets_util.Prng.create 3 in
  ignore (System.run_random prng ~steps:12 sys);
  let snap = System.snapshot sys in
  let probe () =
    System.encode sys;
    ignore (Sys.opaque_identity (System.encoded_hash sys));
    ignore (Sys.opaque_identity (System.encoded_equal sys snap))
  in
  probe ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    probe ()
  done;
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. before);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (System.encoded sys));
  check_bool "copy-out allocates the string" true (Gc.minor_words () -. before > 0.)

(* The same at the explorer's scale: over E11's robust row (5,694
   states, 24,976 successors) a whole exploration allocates about 72
   words per state. Copying out a string for every successor, seen
   before or not, makes it about 116. *)
let test_explorer_copies_only_new_states () =
  let sys =
    Models.augmented_system
      ~bounds:Models.{ s_max = 3; p_resets = 1; q_resets = 1 }
      ~capacity:2 ~adversary:true ~robust:true ~kp:1 ~kq:1 ~w:2 ()
  in
  let run () = Explorer.explore ~invariant:Models.all_section5_invariants sys in
  ignore (run ());
  let before = Gc.minor_words () in
  let states =
    match run () with
    | Explorer.Exhausted { states } -> states
    | Explorer.Limit_reached _ | Explorer.Violation _ -> Alcotest.fail "expected exhausted"
  in
  let per_state = (Gc.minor_words () -. before) /. float_of_int states in
  check_int "states" 5694 states;
  if per_state > 90. then
    Alcotest.failf "%.1f minor words per state (budget 90)" per_state

(* A closure model may replace a whole array through State.set, even
   with one of another length; restore must bring back the kept
   contents without handing the live state an array it shares. *)
let test_restore_after_array_replaced () =
  let swap n =
    Process.Internal
      {
        label = Printf.sprintf "swap%d" n;
        guard = (fun _ -> true);
        effect = (fun _ st -> State.set st "a" (Value.Bool_array (Array.make n true)));
      }
  in
  let flip =
    Process.Internal
      {
        label = "flip";
        guard = (fun _ -> true);
        effect =
          (fun _ st ->
            let a = State.get_bool_array st "a" in
            a.(0) <- not a.(0));
      }
  in
  let sys =
    System.create
      [
        Process.make ~name:"p"
          ~init:[ ("a", Value.Bool_array [| false; true |]); ("x", Value.Int 1) ]
          ~actions:[ swap 2; swap 3; flip ];
      ]
  in
  let snap = System.snapshot sys in
  let st = System.state_of sys "p" in
  List.iter
    (fun label ->
      System.restore sys snap;
      System.execute sys (find_step sys label);
      check_bool (label ^ ": the step changed the state") false
        (System.snapshot_equal snap (System.snapshot sys));
      System.restore sys snap;
      check_bool (label ^ ": restored") true (System.snapshot_equal snap (System.snapshot sys));
      Alcotest.(check (array bool)) (label ^ ": contents") [| false; true |]
        (State.get_bool_array st "a");
      (* the live array is the state's own: mutating it shows in the
         next snapshot, and the next restore undoes it *)
      (State.get_bool_array st "a").(1) <- false;
      check_bool (label ^ ": live mutation seen") false
        (System.snapshot_equal snap (System.snapshot sys));
      System.restore sys snap;
      check_bool (label ^ ": undone") true (System.snapshot_equal snap (System.snapshot sys)))
    [ "p.swap2"; "p.swap3"; "p.flip"; "p.swap3" ]

(* ------------------------------------------------------------------ *)
(* Differential oracle: the explorer as it was before states had ids
   (a Hashtbl keyed by snapshot, a Queue frontier, a (parent, index)
   pair per state), against which the id-table explorer must report
   the same outcome, state count and trace. *)

module Reference = struct
  module Table = Hashtbl.Make (struct
    type t = System.snapshot

    let equal = System.snapshot_equal
    let hash = System.snapshot_hash
  end)

  let explore ~max_states ~invariant system =
    let initial = System.snapshot system in
    let visited : (System.snapshot * int) Table.t = Table.create 4096 in
    Table.add visited initial (initial, -1);
    let frontier = Queue.create () in
    Queue.add initial frontier;
    let states = ref 1 in
    let trace_of snap =
      let rec path snap acc =
        match Table.find visited snap with
        | _, -1 -> acc
        | parent, index -> path parent ((parent, index) :: acc)
      in
      List.map
        (fun (parent, index) ->
          System.restore system parent;
          System.step_label (List.nth (System.enabled_steps system) index))
        (path snap [])
    in
    let check snap =
      System.restore system snap;
      invariant system
    in
    let result = ref None in
    if not (check initial) then
      result := Some (Explorer.Violation { states = !states; trace = [] });
    while !result = None && not (Queue.is_empty frontier) do
      let snap = Queue.pop frontier in
      System.restore system snap;
      let steps = System.enabled_steps system in
      List.iteri
        (fun index step ->
          if !result = None then begin
            System.restore system snap;
            System.execute system step;
            let next = System.snapshot system in
            if not (Table.mem visited next) then begin
              Table.add visited next (snap, index);
              incr states;
              if not (invariant system) then
                result :=
                  Some (Explorer.Violation { states = !states; trace = trace_of next })
              else if !states >= max_states then
                result := Some (Explorer.Limit_reached { states = !states })
              else Queue.add next frontier
            end
          end)
        steps
    done;
    System.restore system initial;
    match !result with
    | Some outcome -> outcome
    | None -> Explorer.Exhausted { states = !states }
end

type config = {
  model : [ `Original | `Augmented | `Robust ];
  bounds : Models.bounds;
  capacity : int;
  adversary : bool;
  lossy : bool;
  kp : int;
  kq : int;
  w : int;
  leap_p : int option;
  leap_q : int option;
}

let config_gen =
  let open QCheck.Gen in
  let* model = oneofl [ `Original; `Augmented; `Robust ] in
  let* s_max = int_range 2 4 and* p_resets = int_range 0 2 and* q_resets = int_range 0 2 in
  let* capacity = int_range 1 3 and* adversary = bool and* lossy = bool in
  let* kp = int_range 1 3 and* kq = int_range 1 3 and* w = int_range 1 3 in
  let* leap_p = opt (int_range 0 (2 * kp)) and* leap_q = opt (int_range 0 (2 * kq)) in
  return
    {
      model;
      bounds = Models.{ s_max; p_resets; q_resets };
      capacity;
      adversary;
      lossy;
      kp;
      kq;
      w;
      leap_p;
      leap_q;
    }

let print_config c =
  let leap = function None -> "default" | Some l -> string_of_int l in
  Printf.sprintf
    "%s s_max=%d resets=%d/%d capacity=%d adversary=%b lossy=%b kp=%d kq=%d w=%d leap=%s/%s"
    (match c.model with `Original -> "original" | `Augmented -> "augmented" | `Robust -> "robust")
    c.bounds.s_max c.bounds.p_resets c.bounds.q_resets c.capacity c.adversary c.lossy c.kp c.kq
    c.w (leap c.leap_p) (leap c.leap_q)

let build c =
  let { bounds; capacity; adversary; lossy; kp; kq; w; leap_p; leap_q; _ } = c in
  match c.model with
  | `Original ->
    (Models.original_system ~bounds ~capacity ~adversary ~lossy ~w (), Models.discrimination_holds)
  | (`Augmented | `Robust) as m ->
    ( Models.augmented_system ~bounds ~capacity ~adversary ~lossy ~robust:(m = `Robust) ?leap_p
        ?leap_q ~kp ~kq ~w (),
      Models.all_section5_invariants )

let differential_explorer_property =
  QCheck.Test.make ~name:"explorer: same outcome, count and trace as the reference" ~count:80
    (QCheck.make ~print:print_config config_gen)
    (fun c ->
      let max_states = 4000 in
      let sys, invariant = build c in
      let got = Explorer.explore ~max_states ~invariant sys in
      let sys, invariant = build c in
      let want = Reference.explore ~max_states ~invariant sys in
      match (got, want) with
      | Explorer.Exhausted a, Explorer.Exhausted b -> a.states = b.states
      | Explorer.Limit_reached a, Explorer.Limit_reached b -> a.states = b.states
      | Explorer.Violation a, Explorer.Violation b -> a.states = b.states && a.trace = b.trace
      | (Explorer.Exhausted _ | Explorer.Limit_reached _ | Explorer.Violation _), _ ->
        QCheck.Test.fail_reportf "explorer: %s, reference: %s"
          (Format.asprintf "%a" Explorer.pp_outcome got)
          (Format.asprintf "%a" Explorer.pp_outcome want))

(* ------------------------------------------------------------------ *)
(* Randomized soundness: long random executions of the robust system
   keep all invariants, whatever the interleaving. *)

let random_soundness =
  QCheck.Test.make ~name:"robust augmented system holds under random schedules"
    ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let bounds = Models.{ s_max = 8; p_resets = 2; q_resets = 2 } in
      let sys =
        Models.augmented_system ~bounds ~capacity:4 ~adversary:true ~lossy:true
          ~robust:true ~kp:2 ~kq:2 ~w:3 ()
      in
      let prng = Resets_util.Prng.create seed in
      ignore
        (System.run_random prng ~steps:400
           ~stop_when:(fun s -> not (Models.all_section5_invariants s))
           sys);
      Models.all_section5_invariants sys)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "apn"
    [
      ( "value/state",
        [
          Alcotest.test_case "accessors" `Quick test_value_accessors;
          Alcotest.test_case "canonical copies" `Quick test_value_canonical_copies_arrays;
          Alcotest.test_case "get/set" `Quick test_state_get_set;
          Alcotest.test_case "snapshot/restore" `Quick test_state_snapshot_restore;
          Alcotest.test_case "snapshot sorted" `Quick test_state_snapshot_sorted_and_deep;
          Alcotest.test_case "duplicate var" `Quick test_state_duplicate_rejected;
        ] );
      ( "network",
        [
          Alcotest.test_case "fifo" `Quick test_network_fifo;
          Alcotest.test_case "capacity" `Quick test_network_capacity;
          Alcotest.test_case "history" `Quick test_network_history;
          Alcotest.test_case "drop head" `Quick test_network_drop_head;
        ] );
      ( "system",
        [
          Alcotest.test_case "in-order delivery" `Quick test_system_in_order_delivery;
          Alcotest.test_case "stable step order" `Quick
            test_system_enabled_steps_deterministic_order;
          Alcotest.test_case "disabled rejected" `Quick test_system_execute_disabled_rejected;
          Alcotest.test_case "snapshot/restore" `Quick test_system_snapshot_restore_roundtrip;
          Alcotest.test_case "deterministic runs" `Quick test_system_random_run_deterministic;
          Alcotest.test_case "out-of-range builders rejected" `Quick
            test_builders_reject_out_of_range;
          Alcotest.test_case "restore undoes each initial step" `Quick
            test_restore_undoes_each_initial_step;
          Alcotest.test_case "restore undoes array flips" `Quick
            test_restore_undoes_array_flips;
          Alcotest.test_case "restore shares no array" `Quick test_restore_shares_no_array;
          Alcotest.test_case "snapshot outgrows its buffer" `Quick
            test_snapshot_outgrows_its_buffer;
          Alcotest.test_case "buffer hash = snapshot hash" `Quick
            test_buffer_hash_is_snapshot_hash;
          Alcotest.test_case "buffer equality in place" `Quick test_buffer_equality_in_place;
          Alcotest.test_case "probe allocates nothing" `Quick test_probe_allocates_nothing;
          Alcotest.test_case "explorer copies only new states" `Quick
            test_explorer_copies_only_new_states;
          Alcotest.test_case "restore after an array is replaced" `Quick
            test_restore_after_array_replaced;
        ] );
      ( "model-check (Section 5)",
        [
          Alcotest.test_case "original safe without resets" `Slow
            test_original_protocol_safe_without_resets;
          Alcotest.test_case "original broken by q reset" `Quick
            test_original_protocol_broken_by_receiver_reset;
          Alcotest.test_case "augmented: p resets safe" `Slow
            test_augmented_sender_resets_safe;
          Alcotest.test_case "augmented: q resets safe (dense)" `Quick
            test_augmented_receiver_resets_safe_without_jumps;
          Alcotest.test_case "combined resets: corner case found" `Quick
            test_combined_resets_find_the_corner_case;
          Alcotest.test_case "robust receiver closes it" `Slow
            test_robust_receiver_closes_the_corner_case;
          Alcotest.test_case "leap 2K is tight" `Quick test_leap_two_k_is_tight;
          Alcotest.test_case "limit reached" `Quick test_explorer_limit_reached;
          Alcotest.test_case "explorer restores state" `Quick
            test_explorer_restores_initial_state;
          Alcotest.test_case "immediate violation" `Quick test_explorer_immediate_violation;
          Alcotest.test_case "replay counterexample" `Quick
            test_replay_reproduces_counterexample;
          Alcotest.test_case "replay bogus trace" `Quick test_replay_rejects_bogus_trace;
          Alcotest.test_case "E11 state space pinned" `Quick test_e11_state_space_pinned;
        ] );
      ( "random",
        [
          qt random_soundness; qt snapshot_restore_property; qt kept_copy_property;
          qt snapshot_hash_spread_property; qt successor_encoding_property;
          qt differential_explorer_property;
        ] );
    ]
