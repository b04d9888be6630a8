(* The paper in one binary.

   Prints the paper's protocol figures (from the executable abstract
   syntax), then machine-checks the story of Sections 3-5 with the
   bounded explorer:

     1. the original anti-replay window protocol (Section 2) and the
        replay attack a receiver reset enables (Section 3);
     2. the SAVE/FETCH protocol (Section 4) surviving the same attack;
     3. the leap: 2K holds, while K and 0 are refuted (which does
        not show that 2K is tight).

   Run with: dune exec examples/model_walkthrough.exe *)

open Resets_apn

let hr () = Format.printf "%s@." (String.make 72 '-')

let () =
  Format.printf "Figure (Section 2): the anti-replay window protocol@.";
  hr ();
  Format.printf "%s@.@." (Pp.process_to_string (Models.original_p ()));
  Format.printf "%s@.@." (Pp.process_to_string (Models.original_q ~w:2 ()));

  Format.printf "Section 3: what a receiver reset enables@.";
  hr ();
  let bounds = Models.{ s_max = 4; p_resets = 0; q_resets = 1 } in
  let sys = Models.original_system ~bounds ~capacity:2 ~adversary:true ~w:2 () in
  (match Explorer.explore ~max_states:300_000 ~invariant:Models.discrimination_holds sys with
  | Explorer.Violation { states; trace } ->
    Format.printf
      "searching %d states finds a replayed message accepted (a sequence@.\
       number delivered twice). The attack, step by step:@.@."
      states;
    List.iteri (fun i step -> Format.printf "  %d. %s@." (i + 1) step) trace
  | Explorer.Exhausted _ | Explorer.Limit_reached _ ->
    Format.printf "unexpectedly safe — see test_apn@.");
  Format.printf "@.";

  Format.printf "Figure (Section 4): process p with SAVE and FETCH@.";
  hr ();
  Format.printf "%s@.@." (Pp.process_to_string (Models.augmented_p ~kp:1 ()));

  Format.printf "Section 5: the same attack against SAVE/FETCH@.";
  hr ();
  let sys =
    Models.augmented_system ~bounds ~capacity:2 ~adversary:true ~kp:1 ~kq:1 ~w:2 ()
  in
  (match
     Explorer.explore ~max_states:600_000 ~invariant:Models.all_section5_invariants sys
   with
  | Explorer.Exhausted { states } ->
    Format.printf
      "every one of the %d reachable states keeps all Section 5 invariants:@.\
       no duplicate delivery, fresh resumption at both ends.@."
      states
  | Explorer.Limit_reached { states } ->
    Format.printf "invariants hold across %d explored states (budget hit).@." states
  | Explorer.Violation { trace; _ } ->
    Format.printf "violated: %s@." (String.concat " ; " trace));
  Format.printf "@.";

  Format.printf "Section 5's leap: 2K holds, K and 0 are refuted@.";
  hr ();
  let leap_bounds = Models.{ s_max = 5; p_resets = 1; q_resets = 0 } in
  List.iter
    (fun (name, leap) ->
      let sys =
        Models.augmented_system ~bounds:leap_bounds ~capacity:2 ?leap_p:leap ~kp:2
          ~kq:2 ~w:2 ()
      in
      match
        Explorer.explore ~max_states:600_000
          ~invariant:Models.sender_freshness_holds sys
      with
      | Explorer.Exhausted { states } ->
        Format.printf "  leap %s: holds (%d states)@." name states
      | Explorer.Limit_reached { states } ->
        Format.printf "  leap %s: holds so far (%d states)@." name states
      | Explorer.Violation { states; trace } ->
        Format.printf "  leap %s: REFUTED in %d states (%s)@." name states
          (String.concat " ; " trace))
    [ ("2K", None); ("K", Some 2); ("0", Some 0) ]
