(* Reset storm: Section 4's second consideration, stress-tested.

   A flaky host resets over and over — sometimes again before the
   first periodic SAVE after the previous wakeup has even happened.
   The wakeup procedure (FETCH, add 2K, then a *blocking* SAVE before
   resuming) is exactly what keeps repeated resets from reusing
   sequence numbers. We storm both endpoints and check the Section 5
   guarantees after every run, then show the same SAVE/FETCH cycle
   against a real filesystem store.

   Run with: dune exec examples/reset_storm.exe *)

open Resets_core
open Resets_sim
open Resets_workload

let storm ~period ~downtime ~count target =
  Reset_schedule.periodic ~every:period ~downtime ~count target

let run_storm name resets =
  let scenario =
    {
      Harness.default with
      protocol = Protocol.save_fetch ~kp:25 ~kq:25 ();
      horizon = Time.of_ms 120;
      resets;
      attack = Harness.Flood { start = Time.of_ms 1; gap = Time.of_us 40 };
    }
  in
  let r = Harness.run scenario in
  let verdict = Convergence.check ~scenario r in
  let m = r.Harness.metrics in
  Format.printf "%-28s resets(p=%d,q=%d) skipped=%-5d replays_in=%d  %s@." name
    m.Metrics.p_resets m.Metrics.q_resets m.Metrics.skipped_seqnos
    m.Metrics.replay_accepted
    (if Convergence.holds verdict then "ALL GUARANTEES HOLD"
     else Format.asprintf "VIOLATED: %a" Convergence.pp verdict)

let () =
  Format.printf "reset storms under a continuous replay flood (Kp = Kq = 25):@.@.";
  run_storm "sender storm (8x)"
    (storm ~period:(Time.of_ms 12) ~downtime:(Time.of_ms 1) ~count:8 Sender);
  run_storm "receiver storm (8x)"
    (storm ~period:(Time.of_ms 12) ~downtime:(Time.of_ms 1) ~count:8 Receiver);
  run_storm "double reset (back-to-back)"
    (Reset_schedule.merge
       (storm ~period:(Time.of_ms 30) ~downtime:(Time.of_us 150) ~count:3 Sender)
       (* the second reset lands right after wakeup, before the first
          periodic SAVE *)
       (Reset_schedule.single ~at:(Time.of_us 30300) ~downtime:(Time.of_us 150) Sender));
  run_storm "alternating both hosts"
    (Reset_schedule.merge
       (storm ~period:(Time.of_ms 25) ~downtime:(Time.of_ms 1) ~count:4 Sender)
       (storm ~period:(Time.of_ms 37) ~downtime:(Time.of_ms 1) ~count:3 Receiver));

  (* --- The same SAVE/FETCH against a real filesystem ---------------- *)
  Format.printf "@.file-backed SAVE/FETCH (what a real gateway would do):@.";
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "ipsec-resets-demo" in
  let store = Resets_persist.File_store.create ~dir in
  let open Resets_persist in
  File_store.save store ~key:"sa-0x42/send_seq" ~value:123456 ~on_complete:(fun () -> ());
  (match File_store.fetch store ~key:"sa-0x42/send_seq" with
  | Some v ->
    Format.printf "  fetched %d after 'reboot'; resuming at %d (leap 2K = 50)@." v (v + 50)
  | None -> Format.printf "  nothing stored (unexpected)@.")
