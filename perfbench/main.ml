(* perfbench: run one workload and print its result as the last line.

   main.exe --workload W --seed N --seconds S --trace 0|1
            --exe IPSEC_RESETS_EXE --dir RUN_DIR --spans SPANS_FILE

   With --trace 0 the result carries the end-to-end metrics; with
   --trace 1 the workload runs the same way and then its traced
   replica, and the result carries every per-layer metric. *)

open Resets_util
open Common

let workloads =
  [
    ("wire-steady", Wire_pair.run);
    ("sim-scale", Sim_scale.run);
    ("apn-explore", Apn_explore.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 --exe PATH --dir DIR \
     --spans FILE";
  exit 2

let parse_args () =
  let get = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace get (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let str k = match Hashtbl.find_opt get k with Some v -> v | None -> usage () in
  let num k conv = match conv (str k) with Some v -> v | None -> usage () in
  {
    workload = str "workload";
    seed = num "seed" int_of_string_opt;
    seconds = num "seconds" float_of_string_opt;
    trace = num "trace" int_of_string_opt = 1;
    exe = str "exe";
    dir = str "dir";
    spans = str "spans";
  }

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun m -> Printf.printf "  %-40s %16.6g %s\n" m.name m.value m.unit_) ms

let () =
  let p = parse_args () in
  let run =
    match List.assoc_opt p.workload workloads with
    | Some f -> f
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" p.workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  match run p with
  | exception e ->
    Printf.eprintf "perfbench: %s failed: %s\n%!" p.workload (Printexc.to_string e);
    exit 1
  | r ->
    List.iter (fun n -> Printf.printf "failure: %s\n" n) r.notes;
    let out, env =
      if not p.trace then begin
        print_metrics "end-to-end (untraced):" r.metrics;
        (r.metrics, r.env)
      end
      else begin
        let t = Traced.run p r in
        print_metrics "end-to-end (untraced run of this invocation):" r.metrics;
        Traced.print t;
        (t.Traced.layer, r.env @ t.Traced.env)
      end
    in
    print_endline (Json.to_string (env_record p env));
    print_endline
      (Json.to_string (result_json ~correct:r.correct ~attempted:r.attempted ~failed:r.failed out))
