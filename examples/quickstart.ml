(* Quickstart: the public API in one page.

   1. Derive a security association and push a packet through ESP.
   2. Watch the anti-replay window classify sequence numbers.
   3. Run a full simulated scenario: a receiver reset with an
      adversary replaying everything — first without SAVE/FETCH, then
      with it.

   Run with: dune exec examples/quickstart.exe *)

open Resets_ipsec
open Resets_core
open Resets_sim

let () =
  (* --- 1. An SA and one ESP round trip ------------------------------ *)
  let sa_params = Sa.derive_params ~spi:0x42l ~secret:"demo-shared-secret" () in
  let wire = Esp.encap ~sa:sa_params ~seq:1 ~payload:"hello, q!" in
  (match Esp.decap ~sa:sa_params wire with
  | Ok (seq, payload) -> Format.printf "decapsulated seq=%d payload=%S@." seq payload
  | Error e -> Format.printf "decap failed: %a@." Esp.pp_error e);

  (* Tampering is caught by the ICV. *)
  let tampered = String.mapi (fun i c -> if i = 14 then 'X' else c) wire in
  (match Esp.decap ~sa:sa_params tampered with
  | Ok _ -> Format.printf "tampered packet accepted (BUG!)@."
  | Error e -> Format.printf "tampered packet rejected: %a@." Esp.pp_error e);

  (* --- 2. The anti-replay window ------------------------------------ *)
  let window = Replay_window.create_private ~w:8 in
  let admit s =
    Format.printf "  admit #%d -> %s@." s
      (Replay_window.verdict_to_string (Replay_window.admit window s))
  in
  Format.printf "window (w=8):@.";
  List.iter admit [ 1; 2; 5; 5; 3; 20; 13; 12 ];

  (* --- 3. A reset + replay attack, with and without SAVE/FETCH ------ *)
  let attack_scenario protocol =
    {
      Harness.default with
      protocol;
      horizon = Time.of_ms 30;
      (* p sends for 10 ms then goes idle; q resets at 11 ms and wakes
         1 ms later; the adversary then replays everything captured. *)
      sender_stop_at = Some (Time.of_ms 10);
      resets = Resets_workload.Reset_schedule.single ~at:(Time.of_ms 11) Receiver;
      attack = Harness.Replay_all_at (Time.of_ms 13);
    }
  in
  let report name protocol =
    let result = Harness.run (attack_scenario protocol) in
    Format.printf "%-30s replays accepted: %5d   (sent %d, delivered %d)@." name
      result.Harness.metrics.Metrics.replay_accepted result.Harness.metrics.Metrics.sent
      result.Harness.metrics.Metrics.delivered
  in
  Format.printf "@.receiver reset + replay-all attack:@.";
  report "without SAVE/FETCH:" Protocol.Volatile;
  report "with SAVE/FETCH (Kq=25):" (Protocol.save_fetch ~kp:25 ~kq:25 ())
