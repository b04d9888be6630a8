(* The observability layer: the Json emitter/parser and the
   experiment-record (Report) schema — including a golden check that an E1-style record
   carries the 2·Kp bound verdict. *)

open Resets_util
open Resets_core
open Resets_sim
open Resets_workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let roundtrip j = Json.parse_exn (Json.to_string j)

let roundtrip_pretty j = Json.parse_exn (Json.to_string_pretty j)

(* ------------------------------------------------------------------ *)
(* Json: emitter / parser round-trips *)

let test_json_scalars () =
  List.iter
    (fun j -> check_bool "roundtrip" true (Json.equal j (roundtrip j)))
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Int min_int;
      Json.Float 1.5;
      Json.Float (-0.25);
      Json.Float 1e-9;
      Json.Float 1.7976931348623157e308;
      Json.Float 0.1;
      Json.String "";
      Json.String "plain";
    ]

let test_json_escaping () =
  let nasty = "quote\" backslash\\ newline\n tab\t cr\r ctrl\x01 del\x1f" in
  (match roundtrip (Json.String nasty) with
  | Json.String s -> check_string "escaped string survives" nasty s
  | _ -> Alcotest.fail "expected a string");
  (* escapes in object keys too *)
  let j = Json.Obj [ ("a\"b\n", Json.Int 1) ] in
  check_bool "escaped key survives" true (Json.equal j (roundtrip j));
  (* \u escapes decode to UTF-8 *)
  (match Json.parse_exn {|"é€"|} with
  | Json.String s -> check_string "unicode escapes" "\xc3\xa9\xe2\x82\xac" s
  | _ -> Alcotest.fail "expected a string");
  match Json.parse_exn {|"😀"|} with
  | Json.String s -> check_string "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected a string"

let test_json_nesting () =
  let j =
    Json.Obj
      [
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
        ( "deep",
          Json.List
            [
              Json.Obj
                [
                  ("xs", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]);
                  ("b", Json.Bool false);
                ];
              Json.List [ Json.List [ Json.String "leaf" ] ];
            ] );
      ]
  in
  check_bool "compact" true (Json.equal j (roundtrip j));
  check_bool "pretty" true (Json.equal j (roundtrip_pretty j))

let test_json_float_typing () =
  (* whole floats must come back as floats, not ints *)
  (match roundtrip (Json.Float 3.0) with
  | Json.Float f -> Alcotest.(check (float 0.)) "3.0 stays float" 3.0 f
  | _ -> Alcotest.fail "Float 3.0 parsed back as non-float");
  check_bool "non-finite emits null" true
    (Json.equal Json.Null (roundtrip (Json.Float Float.nan)))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "parse %S should fail" s))
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1.2.3"; "\"unterminated"; "[1] x"; "{'a':1}" ]

let json_gen =
  let open QCheck.Gen in
  (* keep strings printable-ish but include escapes *)
  let str = string_size ~gen:(char_range '\x00' '\x7f') (int_range 0 12) in
  sized @@ fix (fun self n ->
      let scalar =
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) int;
            map (fun f -> Json.Float f) (float_range (-1e6) 1e6);
            map (fun s -> Json.String s) str;
          ]
      in
      if n <= 0 then scalar
      else
        frequency
          [
            (2, scalar);
            (1, map (fun xs -> Json.List xs) (list_size (int_range 0 4) (self (n / 2))));
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_range 0 4) (pair str (self (n / 2)))) );
          ])

let json_roundtrip_prop =
  QCheck.Test.make ~name:"emit/parse round-trips any value" ~count:300
    (QCheck.make json_gen) (fun j ->
      Json.equal j (roundtrip j) && Json.equal j (roundtrip_pretty j))

(* ------------------------------------------------------------------ *)
(* Report: the experiment-record schema *)

let get path j =
  List.fold_left
    (fun acc key ->
      match acc with Some j -> Json.member key j | None -> None)
    (Some j) path

let test_report_schema () =
  let r = Report.create ~id:"EX" ~title:"a title" ~claim:"a claim" in
  Report.param r "k" (Json.Int 25);
  Report.param r "k" (Json.Int 50) (* overwrites *);
  Report.measure r "worst" (Json.Int 7);
  Report.row r ~table:"sweep" [ ("x", Json.Int 1) ];
  Report.row r ~table:"sweep" [ ("x", Json.Int 2) ];
  Report.check r ~name:"ok check" ~bound:10. ~value:7. true;
  check_bool "pass before failing check" true (Report.pass r);
  Report.check r ~name:"failing check" false;
  check_bool "pass reflects failures" false (Report.pass r);
  check_string "filename" "BENCH_EX.json" (Report.filename r);
  (* the serialized record survives a parse and keeps the schema *)
  let j = Json.parse_exn (Json.to_string (Report.to_json ~wall_clock_s:0.5 r)) in
  check_int "schema_version" Report.schema_version
    (Option.get (Option.bind (Json.member "schema_version" j) Json.as_int));
  check_string "experiment" "EX"
    (Option.get (Option.bind (Json.member "experiment" j) Json.as_string));
  check_int "param overwritten" 50
    (Option.get (Json.as_int (Option.get (get [ "parameters"; "k" ] j))));
  check_int "table rows" 2
    (List.length (Option.get (Json.as_list (Option.get (get [ "measured"; "sweep" ] j)))));
  check_bool "pass serialized" false
    (Option.get (Option.bind (Json.member "pass" j) Json.as_bool));
  check_int "checks serialized" 2
    (List.length (Option.get (Option.bind (Json.member "checks" j) Json.as_list)))

(* Golden check: an E1-style record (one sender-reset run at the
   paper's operating point) must carry the 2·Kp = 50 bound and a
   passing verdict, exactly like bench/main.ml's BENCH_E1.json. *)
let test_report_e1_golden () =
  let kp = 25 in
  let scenario =
    {
      Harness.default with
      horizon = Time.of_ms 40;
      message_gap = Time.of_us 4;
      protocol = Protocol.save_fetch ~kp ~kq:25 ();
      resets =
        Reset_schedule.single
          ~at:(Time.add (Time.of_us ((kp * 40 * 4) + (12 * 4))) (Time.of_us 2))
          ~downtime:(Time.of_ms 1) Sender;
    }
  in
  let result = Harness.run scenario in
  let m = result.Harness.metrics in
  let bound = Analysis.max_lost_seqnos ~kp in
  check_int "the bound is 2*Kp" (2 * kp) bound;
  let r =
    Report.create ~id:"E1" ~title:"sender reset" ~claim:"loss <= 2Kp (Thm i)"
  in
  Report.check r ~name:"loss <= 2Kp" ~bound:(float_of_int bound)
    ~value:(float_of_int m.Metrics.skipped_seqnos)
    (m.Metrics.skipped_seqnos > 0
    && m.Metrics.skipped_seqnos <= bound
    && m.Metrics.fresh_rejected = 0);
  let j = Json.parse_exn (Json.to_string (Report.to_json r)) in
  let checks = Option.get (Option.bind (Json.member "checks" j) Json.as_list) in
  check_int "one check" 1 (List.length checks);
  let c = List.hd checks in
  check_string "check name" "loss <= 2Kp"
    (Option.get (Option.bind (Json.member "name" c) Json.as_string));
  Alcotest.(check (float 0.)) "bound field is 2*Kp" 50.
    (Option.get (Option.bind (Json.member "bound" c) Json.as_float));
  check_bool "verdict passes" true
    (Option.get (Option.bind (Json.member "pass" c) Json.as_bool));
  check_bool "record-level pass" true
    (Option.get (Option.bind (Json.member "pass" j) Json.as_bool))

let test_result_record () =
  let scenario =
    {
      Harness.default with
      horizon = Time.of_ms 10;
      resets = Reset_schedule.single ~at:(Time.of_ms 5) ~downtime:(Time.of_ms 1) Receiver;
    }
  in
  let result = Harness.run scenario in
  let verdict = Convergence.check ~scenario result in
  let j = Json.parse_exn (Json.to_string (Report.result_to_json ~verdict result)) in
  check_string "record tag" "harness_run"
    (Option.get (Option.bind (Json.member "record" j) Json.as_string));
  check_int "sent" result.Harness.metrics.Metrics.sent
    (Option.get (Json.as_int (Option.get (get [ "metrics"; "sent" ] j))));
  check_int "q_resets" 1
    (Option.get (Json.as_int (Option.get (get [ "metrics"; "q_resets" ] j))));
  check_bool "verdict embedded" true
    (Option.get (Json.as_bool (Option.get (get [ "verdict"; "holds" ] j))))

(* ------------------------------------------------------------------ *)
(* Trace JSONL *)

let test_trace_jsonl () =
  let trace = Trace.create () in
  Trace.record trace ~time:(Time.of_us 3) ~source:"p" ~event:"snd" "#1 \"quoted\"";
  Trace.record trace ~time:(Time.of_us 7) ~level:Trace.Warn ~source:"q" ~event:"rcv"
    "#1 accept-new";
  let path = Filename.temp_file "trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Trace.dump_jsonl oc (Trace.entries trace);
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check_int "one line per event" 2 (List.length lines);
      let first = Json.parse_exn (List.hd lines) in
      check_int "t_ns" 3000
        (Option.get (Option.bind (Json.member "t_ns" first) Json.as_int));
      check_string "detail with quotes survives" "#1 \"quoted\""
        (Option.get (Option.bind (Json.member "detail" first) Json.as_string));
      let second = Json.parse_exn (List.nth lines 1) in
      check_string "level" "warn"
        (Option.get (Option.bind (Json.member "level" second) Json.as_string)))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "report"
    [
      ( "json",
        [
          Alcotest.test_case "scalar round-trips" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "nesting" `Quick test_json_nesting;
          Alcotest.test_case "float typing" `Quick test_json_float_typing;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          qt json_roundtrip_prop;
        ] );
      ( "report",
        [
          Alcotest.test_case "schema" `Quick test_report_schema;
          Alcotest.test_case "E1 golden: 2Kp bound verdict" `Quick test_report_e1_golden;
          Alcotest.test_case "harness run record" `Quick test_result_record;
        ] );
      ("trace", [ Alcotest.test_case "jsonl" `Quick test_trace_jsonl ]);
    ]
