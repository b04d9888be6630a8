(* Unit tests for the persistence substrate: the simulated disk's
   crash semantics (the heart of Figures 1 and 2) and the file-backed
   store. *)

open Resets_sim
open Resets_persist

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_opt_int = Alcotest.(check (option int))

let us = Time.of_us

(* ------------------------------------------------------------------ *)
(* Sim_disk *)

let test_save_becomes_durable_after_latency () =
  let e = Engine.create () in
  let d = Sim_disk.create ~latency:(us 100) e in
  let completed_at = ref None in
  Sim_disk.save d ~key:"s" ~value:42 ~on_complete:(fun () ->
      completed_at := Some (Engine.now e));
  check_opt_int "not durable yet" None (Sim_disk.fetch d ~key:"s");
  check_int "in flight" 1 (Sim_disk.in_flight d);
  ignore (Engine.run e);
  check_opt_int "durable" (Some 42) (Sim_disk.fetch d ~key:"s");
  Alcotest.(check (option int64)) "completion time" (Some 100_000L)
    (Option.map Time.to_ns !completed_at);
  check_int "completed counter" 1 (Sim_disk.saves_completed d)

let test_crash_loses_in_flight_write () =
  (* The "reset occurs before the current SAVE finishes" branch of
     Figure 1: the fetched value is the previous one. *)
  let e = Engine.create () in
  let d = Sim_disk.create ~latency:(us 100) e in
  Sim_disk.save d ~key:"s" ~value:1 ~on_complete:ignore;
  ignore (Engine.run e);
  Sim_disk.save d ~key:"s" ~value:2 ~on_complete:(fun () ->
      Alcotest.fail "lost write must not complete");
  (* crash strikes mid-save *)
  ignore (Engine.schedule_after e ~after:(us 50) (fun () -> Sim_disk.crash d));
  ignore (Engine.run e);
  check_opt_int "previous value survives" (Some 1) (Sim_disk.fetch d ~key:"s");
  check_int "lost counter" 1 (Sim_disk.saves_lost d)

let test_completed_save_survives_crash () =
  (* The "reset occurs after the current SAVE finishes" branch. *)
  let e = Engine.create () in
  let d = Sim_disk.create ~latency:(us 100) e in
  Sim_disk.save d ~key:"s" ~value:7 ~on_complete:ignore;
  ignore (Engine.run e);
  Sim_disk.crash d;
  check_opt_int "durable across crash" (Some 7) (Sim_disk.fetch d ~key:"s")

let test_supersede_same_key () =
  let e = Engine.create () in
  let d = Sim_disk.create ~latency:(us 100) e in
  Sim_disk.save d ~key:"s" ~value:1 ~on_complete:(fun () ->
      Alcotest.fail "superseded write must not complete");
  ignore (Engine.schedule_after e ~after:(us 10) (fun () ->
      Sim_disk.save d ~key:"s" ~value:2 ~on_complete:ignore));
  ignore (Engine.run e);
  check_opt_int "latest wins" (Some 2) (Sim_disk.fetch d ~key:"s");
  check_int "one in-flight max" 0 (Sim_disk.in_flight d)

let test_independent_keys () =
  let e = Engine.create () in
  let d = Sim_disk.create ~latency:(us 10) e in
  Sim_disk.save d ~key:"a" ~value:1 ~on_complete:ignore;
  Sim_disk.save d ~key:"b" ~value:2 ~on_complete:ignore;
  check_int "two in flight" 2 (Sim_disk.in_flight d);
  ignore (Engine.run e);
  check_opt_int "a" (Some 1) (Sim_disk.fetch d ~key:"a");
  check_opt_int "b" (Some 2) (Sim_disk.fetch d ~key:"b")

let test_preload () =
  let e = Engine.create () in
  let d = Sim_disk.create ~latency:(us 10) e in
  Sim_disk.preload d ~key:"s" ~value:99;
  check_opt_int "immediately durable" (Some 99) (Sim_disk.fetch d ~key:"s");
  check_int "no save counted" 0 (Sim_disk.saves_begun d)

let test_jittered_latency_bounds () =
  let e = Engine.create () in
  let prng = Resets_util.Prng.create 3 in
  let d = Sim_disk.create_jittered ~latency:(us 100) ~jitter:(us 50) ~prng e in
  for _ = 1 to 20 do
    let l = Time.to_us (Sim_disk.latency_of_next_save d) in
    check_bool "latency in [100,150]us" true (l >= 100. && l <= 150.);
    (* consume the sampled latency *)
    Sim_disk.save d ~key:"k" ~value:0 ~on_complete:ignore;
    ignore (Engine.run e)
  done

let test_crash_with_nothing_pending () =
  let e = Engine.create () in
  let d = Sim_disk.create ~latency:(us 10) e in
  Sim_disk.crash d;
  check_int "nothing lost" 0 (Sim_disk.saves_lost d)

(* ------------------------------------------------------------------ *)
(* Sim_disk.save_snapshot: one write covering many keys (the coalesced
   recovery discipline rides on these semantics) *)

let test_snapshot_atomic_durability () =
  let e = Engine.create () in
  let d = Sim_disk.create ~latency:(us 100) e in
  let finished = ref false in
  Sim_disk.save_snapshot d
    ~entries:[| ("a", 1); ("b", 2); ("c", 3) |]
    ~on_complete:(fun () -> finished := true);
  check_int "one write begun" 1 (Sim_disk.saves_begun d);
  check_int "one in flight" 1 (Sim_disk.in_flight d);
  check_opt_int "nothing durable yet" None (Sim_disk.fetch d ~key:"a");
  ignore (Engine.run e);
  check_bool "completed" true !finished;
  check_int "one write completed" 1 (Sim_disk.saves_completed d);
  List.iter
    (fun (key, v) -> check_opt_int key (Some v) (Sim_disk.fetch d ~key))
    [ ("a", 1); ("b", 2); ("c", 3) ]

let test_snapshot_crash_loses_all_keys () =
  let e = Engine.create () in
  let d = Sim_disk.create ~latency:(us 100) e in
  Sim_disk.preload d ~key:"b" ~value:7;
  Sim_disk.save_snapshot d
    ~entries:[| ("a", 1); ("b", 2) |]
    ~on_complete:(fun () -> Alcotest.fail "lost snapshot must not complete");
  ignore (Engine.schedule_after e ~after:(us 50) (fun () -> Sim_disk.crash d));
  ignore (Engine.run e);
  check_opt_int "a never written" None (Sim_disk.fetch d ~key:"a");
  check_opt_int "b keeps previous value" (Some 7) (Sim_disk.fetch d ~key:"b");
  check_int "one write lost" 1 (Sim_disk.saves_lost d)

let test_snapshot_supersedes_and_is_superseded () =
  let e = Engine.create () in
  let d = Sim_disk.create ~latency:(us 100) e in
  (* a pending single-key save covered by the snapshot is dropped ... *)
  Sim_disk.save d ~key:"b" ~value:1 ~on_complete:(fun () ->
      Alcotest.fail "superseded save must not complete");
  ignore
    (Engine.schedule_after e ~after:(us 10) (fun () ->
         Sim_disk.save_snapshot d
           ~entries:[| ("a", 10); ("b", 20) |]
           ~on_complete:ignore));
  ignore (Engine.run e);
  check_opt_int "snapshot value wins" (Some 20) (Sim_disk.fetch d ~key:"b");
  (* ... and a later save touching any snapshot key drops the whole
     pending snapshot: the write is a unit. *)
  Sim_disk.save_snapshot d
    ~entries:[| ("a", 100); ("b", 200) |]
    ~on_complete:(fun () -> Alcotest.fail "superseded snapshot must not complete");
  ignore
    (Engine.schedule_after e ~after:(us 10) (fun () ->
         Sim_disk.save d ~key:"a" ~value:111 ~on_complete:ignore));
  ignore (Engine.run e);
  check_opt_int "late save wins" (Some 111) (Sim_disk.fetch d ~key:"a");
  check_opt_int "stale snapshot entry discarded" (Some 20)
    (Sim_disk.fetch d ~key:"b")

let test_remove_cancels_pending () =
  let e = Engine.create () in
  let d = Sim_disk.create ~latency:(us 100) e in
  Sim_disk.preload d ~key:"k" ~value:1;
  Sim_disk.save d ~key:"k" ~value:2 ~on_complete:(fun () ->
      Alcotest.fail "cancelled write must not complete");
  Sim_disk.remove d ~key:"k";
  check_int "nothing in flight" 0 (Sim_disk.in_flight d);
  ignore (Engine.run e);
  check_opt_int "durably gone" None (Sim_disk.fetch d ~key:"k");
  check_int "no keys left" 0 (Sim_disk.key_count d)

let test_preload_cancels_pending () =
  (* Establishment state supersedes an in-flight write of the old
     sequence space — the degraded re-establishment rule. *)
  let e = Engine.create () in
  let d = Sim_disk.create ~latency:(us 100) e in
  Sim_disk.save d ~key:"k" ~value:8270 ~on_complete:(fun () ->
      Alcotest.fail "stale-space write must not land on the preload");
  Sim_disk.preload d ~key:"k" ~value:1;
  check_opt_int "preload durable now" (Some 1) (Sim_disk.fetch d ~key:"k");
  ignore (Engine.run e);
  check_opt_int "preload still the truth" (Some 1) (Sim_disk.fetch d ~key:"k")

let test_snapshot_empty_rejected () =
  let e = Engine.create () in
  let d = Sim_disk.create ~latency:(us 10) e in
  Alcotest.check_raises "empty"
    (Invalid_argument "Sim_disk.save_snapshot: empty snapshot") (fun () ->
      Sim_disk.save_snapshot d ~entries:[||] ~on_complete:ignore)

(* ------------------------------------------------------------------ *)
(* Sim_disk fault injection: the chaos harness's faulty-store model *)

let faulty spec seed =
  Sim_disk.Faults.create ~spec ~prng:(Resets_util.Prng.create seed)

let test_fault_write_fails_transiently () =
  let e = Engine.create () in
  let spec = { Sim_disk.Faults.none with write_fail_prob = 1.0 } in
  let d = Sim_disk.create ~faults:(faulty spec 1) ~latency:(us 100) e in
  let errored = ref 0 in
  Sim_disk.save d ~key:"k" ~value:5
    ~on_error:(fun () -> incr errored)
    ~on_complete:(fun () -> Alcotest.fail "failed write must not complete");
  ignore (Engine.run e);
  check_int "on_error fired after the latency" 1 !errored;
  check_opt_int "nothing durable" None (Sim_disk.fetch d ~key:"k");
  check_int "counted failed" 1 (Sim_disk.saves_failed d);
  check_int "not counted completed" 0 (Sim_disk.saves_completed d)

let test_fault_torn_snapshot_prefix () =
  let e = Engine.create () in
  let spec = { Sim_disk.Faults.none with torn_prob = 1.0 } in
  let d = Sim_disk.create ~faults:(faulty spec 2) ~latency:(us 100) e in
  let errored = ref 0 in
  Sim_disk.save_snapshot d
    ~entries:[| ("a", 1); ("b", 2); ("c", 3) |]
    ~on_error:(fun () -> incr errored)
    ~on_complete:(fun () -> Alcotest.fail "torn snapshot must not complete");
  ignore (Engine.run e);
  check_int "reported failed" 1 !errored;
  check_int "counted torn" 1 (Sim_disk.snapshots_torn d);
  (* a STRICT prefix landed: c never durable, and b durable implies a *)
  let durable key = Sim_disk.fetch d ~key <> None in
  check_bool "last entry lost" false (durable "c");
  check_bool "prefix shape" true ((not (durable "b")) || durable "a")

let test_fault_corrupt_fetch_detected () =
  let e = Engine.create () in
  let spec = { Sim_disk.Faults.none with read_corrupt_prob = 1.0 } in
  let d = Sim_disk.create ~faults:(faulty spec 3) ~latency:(us 10) e in
  Sim_disk.save d ~key:"k" ~value:42 ~on_complete:ignore;
  ignore (Engine.run e);
  (match Sim_disk.fetch_checked d ~key:"k" with
  | Store.Corrupt -> ()
  | _ -> Alcotest.fail "expected Corrupt");
  check_int "counted" 1 (Sim_disk.fetches_corrupt d);
  check_opt_int "medium itself undamaged" (Some 42) (Sim_disk.fetch d ~key:"k")

let test_fault_stale_fetch_detected () =
  let e = Engine.create () in
  let spec = { Sim_disk.Faults.none with read_stale_prob = 1.0 } in
  let d = Sim_disk.create ~faults:(faulty spec 4) ~latency:(us 10) e in
  Sim_disk.save d ~key:"k" ~value:1 ~on_complete:ignore;
  ignore (Engine.run e);
  Sim_disk.save d ~key:"k" ~value:2 ~on_complete:ignore;
  ignore (Engine.run e);
  (match Sim_disk.fetch_checked d ~key:"k" with
  | Store.Stale 1 -> ()
  | Store.Stale v -> Alcotest.failf "stale served %d, expected 1" v
  | _ -> Alcotest.fail "expected Stale");
  check_int "counted" 1 (Sim_disk.fetches_stale d)

let test_fault_clean_fetch_checked () =
  (* Without a plan the checked path is just verification. *)
  let e = Engine.create () in
  let d = Sim_disk.create ~latency:(us 10) e in
  (match Sim_disk.fetch_checked d ~key:"k" with
  | Store.Missing -> ()
  | _ -> Alcotest.fail "expected Missing");
  Sim_disk.save d ~key:"k" ~value:9 ~on_complete:ignore;
  ignore (Engine.run e);
  match Sim_disk.fetch_checked d ~key:"k" with
  | Fetched 9 -> ()
  | _ -> Alcotest.fail "expected Fetched 9"

let test_fault_pattern_deterministic () =
  let run seed =
    let e = Engine.create () in
    let spec =
      {
        Sim_disk.Faults.write_fail_prob = 0.3;
        torn_prob = 0.0;
        read_corrupt_prob = 0.2;
        read_stale_prob = 0.1;
        latency_factor = 1.0;
      }
    in
    let d = Sim_disk.create ~faults:(faulty spec seed) ~latency:(us 10) e in
    let trail = ref [] in
    for v = 1 to 40 do
      Sim_disk.save d ~key:"k" ~value:v ~on_complete:ignore;
      ignore (Engine.run e);
      let tag =
        match Sim_disk.fetch_checked d ~key:"k" with
        | Fetched v -> Printf.sprintf "ok%d" v
        | Store.Missing -> "miss"
        | Store.Corrupt -> "corrupt"
        | Store.Stale v -> Printf.sprintf "stale%d" v
      in
      trail := tag :: !trail
    done;
    (!trail, Sim_disk.saves_failed d, Sim_disk.fetches_corrupt d)
  in
  check_bool "same seed, same faults" true (run 7 = run 7);
  check_bool "faults actually rolled" true
    (let _, failed, corrupt = run 7 in
     failed > 0 && corrupt > 0)

(* ------------------------------------------------------------------ *)
(* File_store *)

let temp_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "resets-test-%s-%d" name (Unix.getpid ())) in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let test_file_store_roundtrip () =
  let store = File_store.create ~dir:(temp_dir "fs1") in
  let completed = ref false in
  File_store.save store ~key:"sa/send" ~value:12345 ~on_complete:(fun () ->
      completed := true);
  check_bool "synchronous completion" true !completed;
  check_opt_int "fetch" (Some 12345) (File_store.fetch store ~key:"sa/send")

let test_file_store_missing_key () =
  let store = File_store.create ~dir:(temp_dir "fs2") in
  check_opt_int "missing" None (File_store.fetch store ~key:"nope")

let test_file_store_overwrite () =
  let store = File_store.create ~dir:(temp_dir "fs3") in
  File_store.save store ~key:"k" ~value:1 ~on_complete:ignore;
  File_store.save store ~key:"k" ~value:2 ~on_complete:ignore;
  check_opt_int "latest" (Some 2) (File_store.fetch store ~key:"k")

let test_file_store_keys_and_remove () =
  let store = File_store.create ~dir:(temp_dir "fs4") in
  File_store.save store ~key:"alpha" ~value:1 ~on_complete:ignore;
  File_store.save store ~key:"beta/with slash" ~value:2 ~on_complete:ignore;
  let keys = List.sort compare (File_store.keys store) in
  Alcotest.(check (list string)) "keys" [ "alpha"; "beta/with slash" ] keys;
  File_store.remove store ~key:"alpha";
  check_opt_int "removed" None (File_store.fetch store ~key:"alpha");
  File_store.remove store ~key:"alpha" (* idempotent *)

let test_file_store_crash_noop () =
  let store = File_store.create ~dir:(temp_dir "fs5") in
  File_store.save store ~key:"k" ~value:3 ~on_complete:ignore;
  File_store.crash store;
  check_opt_int "filesystem is durable" (Some 3) (File_store.fetch store ~key:"k")

let test_file_store_no_tmp_residue () =
  let dir = temp_dir "fs6" in
  let store = File_store.create ~dir in
  for v = 1 to 50 do
    File_store.save store ~key:"hot" ~value:v ~on_complete:ignore
  done;
  check_opt_int "last write wins" (Some 50) (File_store.fetch store ~key:"hot");
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tmp")
  in
  Alcotest.(check (list string)) "no tmp files survive a save" [] leftovers

let test_file_store_stale_tmp_ignored () =
  (* A torn write is a partial tmp file left by a crash: it must be
     invisible to fetch/keys, and a later save must still land. *)
  let dir = temp_dir "fs7" in
  let store = File_store.create ~dir in
  File_store.save store ~key:"edge" ~value:4242 ~on_complete:ignore;
  (* plant a half-written tmp next to the real file, as a crashed
     writer (a different pid) would leave it *)
  let torn =
    Filename.concat dir (Resets_util.Hex.encode "edge" ^ ".seq.99999.tmp")
  in
  let oc = open_out_bin torn in
  output_string oc "12";
  (* a torn prefix of some larger value *)
  close_out oc;
  check_opt_int "fetch ignores the torn tmp" (Some 4242)
    (File_store.fetch store ~key:"edge");
  Alcotest.(check (list string)) "keys ignore the torn tmp" [ "edge" ]
    (File_store.keys store);
  File_store.save store ~key:"edge" ~value:4243 ~on_complete:ignore;
  check_opt_int "save still lands" (Some 4243)
    (File_store.fetch store ~key:"edge")

let test_file_store_corrupt_detected () =
  let dir = temp_dir "fs8" in
  let store = File_store.create ~dir in
  (* overwrite the final file with garbage, bypassing save *)
  let final = Filename.concat dir (Resets_util.Hex.encode "bad" ^ ".seq") in
  let oc = open_out_bin final in
  output_string oc "not-a-number";
  close_out oc;
  check_bool "fetch_checked flags garbage" true
    (File_store.fetch_checked store ~key:"bad" = Store.Corrupt);
  check_bool "missing key reported" true
    (File_store.fetch_checked store ~key:"absent" = Store.Missing)

let test_file_store_save_error_reported () =
  let dir = temp_dir "fs9" in
  let store = File_store.create ~dir in
  (* Destroy the directory out from under the store: the tmp open
     fails, on_error fires, on_complete must not. *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  let errored = ref false and completed = ref false in
  File_store.save store ~key:"k" ~value:1
    ~on_error:(fun () -> errored := true)
    ~on_complete:(fun () -> completed := true);
  check_bool "on_error fired" true !errored;
  check_bool "on_complete suppressed" false !completed

let test_file_store_torn_write_never_observed () =
  (* A writer process is SIGKILLed while overwriting one key in a tight
     loop; a concurrent reader (and the post-mortem fetch) must only
     ever see one of the two complete values — never a prefix, suffix
     or splice. The two values share no digits and differ in length so
     any torn read fails the membership check. *)
  let dir = temp_dir "fs10" in
  let store = File_store.create ~dir in
  let a = 77777 and b = 333333333333333 in
  File_store.save store ~key:"spin" ~value:a ~on_complete:ignore;
  match Unix.fork () with
  | 0 ->
      (* child: hammer the key until killed *)
      let v = ref b in
      (try
         while true do
           File_store.save store ~key:"spin" ~value:!v ~on_complete:ignore;
           v := if !v = a then b else a
         done
       with _ -> ());
      Unix._exit 0
  | pid ->
      let deadline = Unix.gettimeofday () +. 0.3 in
      let reads = ref 0 in
      while Unix.gettimeofday () < deadline do
        (match File_store.fetch store ~key:"spin" with
        | Some v when v = a || v = b -> incr reads
        | Some v -> Alcotest.failf "torn value observed: %d" v
        | None -> Alcotest.fail "key vanished mid-overwrite");
        ignore (File_store.fetch_checked store ~key:"spin" |> function
                | Store.Corrupt -> Alcotest.fail "corrupt observed"
                | _ -> ())
      done;
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      check_bool "reader actually raced the writer" true (!reads > 100);
      (match File_store.fetch store ~key:"spin" with
      | Some v when v = a || v = b -> ()
      | Some v -> Alcotest.failf "post-kill torn value: %d" v
      | None -> Alcotest.fail "post-kill key missing")

(* ------------------------------------------------------------------ *)
(* File_store under an injected fault plan: the same seed-deterministic
   Faults model the chaos harness drives Sim_disk with, now against a
   real filesystem. *)

let fs_faulty spec seed =
  Faults.create ~spec ~prng:(Resets_util.Prng.create seed)

let test_fs_fault_write_fails_transiently () =
  let store = File_store.create ~dir:(temp_dir "fsf1") in
  File_store.set_faults store
    (fs_faulty { Faults.none with write_fail_prob = 1.0 } 1);
  let errors = ref 0 in
  File_store.save store ~key:"k" ~value:9
    ~on_error:(fun () -> incr errors)
    ~on_complete:(fun () -> Alcotest.fail "completed under write_fail=1");
  check_int "on_error fired" 1 !errors;
  check_int "counted" 1 (File_store.saves_failed store);
  check_opt_int "nothing reached the medium" None
    (File_store.fetch store ~key:"k")

let test_fs_fault_torn_rename_keeps_old_value () =
  (* An aborted rename is the filesystem's torn write: the tmp file is
     fully written but never installed, so the old envelope stays the
     durable truth and no reader can observe an intermediate state. *)
  let dir = temp_dir "fsf2" in
  let store = File_store.create ~dir in
  File_store.save store ~key:"edge" ~value:100 ~on_complete:ignore;
  File_store.set_faults store
    (fs_faulty { Faults.none with torn_prob = 1.0 } 2);
  let errors = ref 0 in
  File_store.save store ~key:"edge" ~value:200
    ~on_error:(fun () -> incr errors)
    ~on_complete:(fun () -> Alcotest.fail "completed under torn=1");
  check_int "on_error fired" 1 !errors;
  check_int "torn counted" 1 (File_store.renames_torn store);
  check_opt_int "old value still durable" (Some 100)
    (File_store.fetch store ~key:"edge");
  check_bool "checked fetch serves the old value intact" true
    (File_store.fetch_checked store ~key:"edge" = Store.Fetched 100);
  (* a reader through a fresh handle (a restarted process) agrees *)
  check_opt_int "fresh handle agrees" (Some 100)
    (File_store.fetch (File_store.create ~dir) ~key:"edge")

let test_fs_fault_corrupt_fetch_detected () =
  let store = File_store.create ~dir:(temp_dir "fsf3") in
  File_store.save store ~key:"k" ~value:4242 ~on_complete:ignore;
  File_store.set_faults store
    (fs_faulty { Faults.none with read_corrupt_prob = 1.0 } 3);
  (match File_store.fetch_checked store ~key:"k" with
  | Store.Corrupt -> ()
  | _ -> Alcotest.fail "bit-flipped read not flagged Corrupt");
  check_int "counted" 1 (File_store.fetches_corrupt store);
  (* the medium itself is untouched: a clean handle reads 4242 *)
  File_store.set_faults store Faults.(create ~spec:none ~prng:(Resets_util.Prng.create 1));
  check_bool "plan off: value intact" true
    (File_store.fetch_checked store ~key:"k" = Store.Fetched 4242)

let test_fs_fault_stale_fetch_detected () =
  let store = File_store.create ~dir:(temp_dir "fsf4") in
  File_store.set_faults store
    (fs_faulty { Faults.none with read_stale_prob = 1.0 } 4);
  File_store.save store ~key:"k" ~value:1 ~on_complete:ignore;
  File_store.save store ~key:"k" ~value:2 ~on_complete:ignore;
  match File_store.fetch_checked store ~key:"k" with
  | Store.Stale v ->
    check_int "stale read serves the superseded generation" 1 v;
    check_int "counted" 1 (File_store.fetches_stale store)
  | _ -> Alcotest.fail "stale read not flagged Stale"

let test_fs_fault_plan_deterministic () =
  (* Two stores over different directories, same seed: the fault plan
     must produce the identical outcome sequence — sharding and disk
     layout must not perturb the stream. *)
  let spec =
    { Faults.none with write_fail_prob = 0.3; torn_prob = 0.2;
      read_corrupt_prob = 0.2; read_stale_prob = 0.2 }
  in
  let run name seed =
    let store = File_store.create ~dir:(temp_dir name) in
    File_store.set_faults store (fs_faulty spec seed);
    let trace = Buffer.create 64 in
    for v = 1 to 40 do
      File_store.save store ~key:"k" ~value:v
        ~on_error:(fun () -> Buffer.add_char trace 'e')
        ~on_complete:(fun () -> Buffer.add_char trace '.');
      Buffer.add_string trace
        (match File_store.fetch_checked store ~key:"k" with
        | Store.Fetched _ -> "F"
        | Store.Stale _ -> "S"
        | Store.Corrupt -> "C"
        | Store.Missing -> "M")
    done;
    Buffer.contents trace
  in
  let a = run "fsf5a" 7 and b = run "fsf5b" 7 and c = run "fsf5c" 8 in
  check_bool "same seed, same fault pattern" true (a = b);
  check_bool "different seed, different pattern" true (a <> c)

let test_fs_fault_preload_bypasses_plan () =
  let store = File_store.create ~dir:(temp_dir "fsf6") in
  File_store.set_faults store
    (fs_faulty { Faults.none with write_fail_prob = 1.0 } 5);
  File_store.preload store ~key:"k" ~value:77;
  check_opt_int "establishment write is durable by assumption" (Some 77)
    (File_store.fetch store ~key:"k")

(* ------------------------------------------------------------------ *)
(* File_store.Snapshot: the coalesced (one file per worker) store. *)

let test_snap_roundtrip_and_reload () =
  let dir = temp_dir "snap1" in
  let s = File_store.Snapshot.load ~dir ~name:"recv-w0" () in
  File_store.Snapshot.save s ~key:"sa/1" ~value:11 ~on_complete:ignore;
  File_store.Snapshot.save s ~key:"sa/2" ~value:22 ~on_complete:ignore;
  File_store.Snapshot.save s ~key:"sa/1" ~value:111 ~on_complete:ignore;
  check_opt_int "in-memory" (Some 111) (File_store.Snapshot.fetch s ~key:"sa/1");
  (* a restarted process reloads the same table from the file *)
  let s2 = File_store.Snapshot.load ~dir ~name:"recv-w0" () in
  check_opt_int "reloaded sa/1" (Some 111)
    (File_store.Snapshot.fetch s2 ~key:"sa/1");
  check_opt_int "reloaded sa/2" (Some 22)
    (File_store.Snapshot.fetch s2 ~key:"sa/2");
  check_bool "checked fetch verifies" true
    (File_store.Snapshot.fetch_checked s2 ~key:"sa/2" = Store.Fetched 22);
  check_bool "missing key" true
    (File_store.Snapshot.fetch_checked s2 ~key:"nope" = Store.Missing)

let test_snap_torn_prefix () =
  (* A torn snapshot write installs a strict prefix of the new entries;
     the remaining keys keep their previous durable values (the old
     snapshot was replaced, not erased). *)
  let dir = temp_dir "snap2" in
  let s = File_store.Snapshot.load ~dir ~name:"w" () in
  File_store.Snapshot.save s ~key:"a" ~value:1 ~on_complete:ignore;
  File_store.Snapshot.save s ~key:"b" ~value:2 ~on_complete:ignore;
  let f = fs_faulty { Faults.none with torn_prob = 1.0 } 6 in
  let s =
    File_store.Snapshot.load ~faults:f ~dir ~name:"w" ()
  in
  let errors = ref 0 in
  File_store.Snapshot.save s ~key:"a" ~value:10
    ~on_error:(fun () -> incr errors)
    ~on_complete:ignore;
  check_int "torn write reported" 1 !errors;
  check_bool "torn counted" true (File_store.Snapshot.snapshots_torn s >= 1);
  (* reload through a clean handle: every key present, every value one
     of the two complete generations, never a splice *)
  let s2 = File_store.Snapshot.load ~dir ~name:"w" () in
  (match File_store.Snapshot.fetch s2 ~key:"a" with
  | Some (1 | 10) -> ()
  | v -> Alcotest.failf "a: unexpected %s"
           (match v with Some n -> string_of_int n | None -> "missing"));
  check_opt_int "b keeps its durable value" (Some 2)
    (File_store.Snapshot.fetch s2 ~key:"b")

let test_snap_store_face () =
  (* The Store.t face drives the snapshot like any other backend. *)
  let dir = temp_dir "snap3" in
  let s = File_store.Snapshot.load ~dir ~name:"w" () in
  let st = File_store.Snapshot.store s in
  st.Store.save ~key:"k" ~value:5 ~on_error:ignore ~on_complete:ignore;
  check_opt_int "fetch through the face" (Some 5) (st.Store.fetch ~key:"k")

(* ------------------------------------------------------------------ *)
(* Last-write-wins: any sequence of saves leaves each backend holding
   the latest value per key (the Store.S durability contract). *)

let file_store_last_write_wins =
  QCheck.Test.make ~name:"File_store is last-write-wins" ~count:40
    QCheck.(
      list_of_size (Gen.int_range 1 30)
        (pair (int_range 0 3) (int_range 0 1_000_000)))
    (fun ops ->
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "resets-lww-%d-%d" (Unix.getpid ()) (Hashtbl.hash ops))
      in
      if Sys.file_exists dir then
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      let fs = File_store.create ~dir in
      let reference = Hashtbl.create 8 in
      let keys = [| "a"; "b"; "c"; "d" |] in
      List.for_all
        (fun (ki, v) ->
          let key = keys.(ki) in
          Hashtbl.replace reference key v;
          File_store.save fs ~key ~value:v ~on_complete:ignore;
          File_store.fetch fs ~key = Some v)
        ops
      && Array.for_all
           (fun key -> File_store.fetch fs ~key = Hashtbl.find_opt reference key)
           keys)

let sim_disk_settles_like_file_store =
  (* once the engine drains, the simulated disk's durable contents match
     a synchronous store fed the same sequence *)
  QCheck.Test.make ~name:"Sim_disk settles to last-write-wins" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 30)
        (pair (int_range 0 3) (int_range 0 1_000_000)))
    (fun ops ->
      let e = Engine.create () in
      let d = Sim_disk.create ~latency:(us 10) e in
      let reference = Hashtbl.create 8 in
      let keys = [| "a"; "b"; "c"; "d" |] in
      List.iter
        (fun (ki, v) ->
          let key = keys.(ki) in
          Hashtbl.replace reference key v;
          Sim_disk.save d ~key ~value:v ~on_complete:ignore)
        ops;
      ignore (Engine.run e);
      Array.for_all
        (fun key -> Sim_disk.fetch d ~key = Hashtbl.find_opt reference key)
        keys)

let () =
  Alcotest.run "persist"
    [
      ( "sim_disk",
        [
          Alcotest.test_case "durable after latency" `Quick
            test_save_becomes_durable_after_latency;
          Alcotest.test_case "crash loses in-flight" `Quick
            test_crash_loses_in_flight_write;
          Alcotest.test_case "completed survives crash" `Quick
            test_completed_save_survives_crash;
          Alcotest.test_case "supersede" `Quick test_supersede_same_key;
          Alcotest.test_case "independent keys" `Quick test_independent_keys;
          Alcotest.test_case "preload" `Quick test_preload;
          Alcotest.test_case "jitter bounds" `Quick test_jittered_latency_bounds;
          Alcotest.test_case "crash idle" `Quick test_crash_with_nothing_pending;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "atomic durability" `Quick
            test_snapshot_atomic_durability;
          Alcotest.test_case "crash loses all keys" `Quick
            test_snapshot_crash_loses_all_keys;
          Alcotest.test_case "supersede both ways" `Quick
            test_snapshot_supersedes_and_is_superseded;
          Alcotest.test_case "remove cancels pending" `Quick
            test_remove_cancels_pending;
          Alcotest.test_case "preload cancels pending" `Quick
            test_preload_cancels_pending;
          Alcotest.test_case "empty rejected" `Quick test_snapshot_empty_rejected;
        ] );
      ( "faults",
        [
          Alcotest.test_case "transient write failure" `Quick
            test_fault_write_fails_transiently;
          Alcotest.test_case "torn snapshot prefix" `Quick
            test_fault_torn_snapshot_prefix;
          Alcotest.test_case "corrupt fetch" `Quick test_fault_corrupt_fetch_detected;
          Alcotest.test_case "stale fetch" `Quick test_fault_stale_fetch_detected;
          Alcotest.test_case "clean checked fetch" `Quick
            test_fault_clean_fetch_checked;
          Alcotest.test_case "fault pattern determinism" `Quick
            test_fault_pattern_deterministic;
        ] );
      ( "file_store",
        [
          Alcotest.test_case "roundtrip" `Quick test_file_store_roundtrip;
          Alcotest.test_case "missing key" `Quick test_file_store_missing_key;
          Alcotest.test_case "overwrite" `Quick test_file_store_overwrite;
          Alcotest.test_case "keys/remove" `Quick test_file_store_keys_and_remove;
          Alcotest.test_case "crash noop" `Quick test_file_store_crash_noop;
          Alcotest.test_case "no tmp residue" `Quick test_file_store_no_tmp_residue;
          Alcotest.test_case "stale tmp ignored" `Quick
            test_file_store_stale_tmp_ignored;
          Alcotest.test_case "corrupt detected" `Quick
            test_file_store_corrupt_detected;
          Alcotest.test_case "save error reported" `Quick
            test_file_store_save_error_reported;
          Alcotest.test_case "torn write never observed" `Quick
            test_file_store_torn_write_never_observed;
        ] );
      ( "file_store_faults",
        [
          Alcotest.test_case "transient write failure" `Quick
            test_fs_fault_write_fails_transiently;
          Alcotest.test_case "torn rename keeps old value" `Quick
            test_fs_fault_torn_rename_keeps_old_value;
          Alcotest.test_case "corrupt fetch" `Quick
            test_fs_fault_corrupt_fetch_detected;
          Alcotest.test_case "stale fetch" `Quick
            test_fs_fault_stale_fetch_detected;
          Alcotest.test_case "fault plan determinism" `Quick
            test_fs_fault_plan_deterministic;
          Alcotest.test_case "preload bypasses plan" `Quick
            test_fs_fault_preload_bypasses_plan;
        ] );
      ( "file_store_snapshot",
        [
          Alcotest.test_case "roundtrip and reload" `Quick
            test_snap_roundtrip_and_reload;
          Alcotest.test_case "torn prefix" `Quick test_snap_torn_prefix;
          Alcotest.test_case "store face" `Quick test_snap_store_face;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest file_store_last_write_wins;
          QCheck_alcotest.to_alcotest sim_disk_settles_like_file_store;
        ] );
    ]
