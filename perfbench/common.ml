(* Shared pieces of the benchmark: result records, order statistics,
   /proc readers and the environment record. *)

open Resets_util

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let wall () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Run parameters, as given on the command line.                       *)

type params = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  exe : string;  (** the ipsec-resets executable the wire workloads spawn *)
  dir : string;  (** this run's scratch directory; removed by run.py *)
  spans : string;  (** where the traced run writes its spans *)
}

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (** end-to-end metrics, measured untraced *)
  layer : metric list;  (** per-layer counters of the same run *)
  notes : string list;  (** failure details, one line each *)
  env : (string * Json.t) list;  (** workload-specific environment fields *)
}

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj
                   [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
               ))
             metrics) );
    ]

let find_metric name ms =
  match List.find_opt (fun m -> m.name = name) ms with
  | Some m -> m.value
  | None -> invalid_arg ("missing metric " ^ name)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let sum_f = List.fold_left ( +. ) 0.
let sum_i = List.fold_left ( + ) 0
let ratio a b = if b = 0. then 0. else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* ------------------------------------------------------------------ *)
(* /proc                                                               *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let status_kb pid field =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ k; v ] when k = field -> (
          match String.split_on_char ' ' (String.trim v) with
          | n :: _ -> ( try int_of_string n with Failure _ -> acc)
          | [] -> acc)
        | _ -> acc)
      0
      (String.split_on_char '\n' s)

(* Peak resident set (VmHWM) in kB; 0 once the process is gone. *)
let vmhwm_kb pid = status_kb (string_of_int pid) "VmHWM"
let self_vmhwm_mb () = float_of_int (status_kb "self" "VmHWM") /. 1024.

(* Per-thread CPU of a live process: user and system clock ticks from
   /proc/PID/task/TID/stat, and the nanosecond run time from schedstat. *)
type task = { tid : int; utime : int; stime : int; run_ns : int }

let clk_tck = 100.

let task_of pid tid =
  let base = Printf.sprintf "/proc/%d/task/%d" pid tid in
  match (read_file (base ^ "/stat"), read_file (base ^ "/schedstat")) with
  | Some stat, Some sched -> (
    match String.rindex_opt stat ')' with
    | None -> None
    | Some i -> (
      let rest =
        String.split_on_char ' '
          (String.trim (String.sub stat (i + 1) (String.length stat - i - 1)))
      in
      let field n = int_of_string (List.nth rest n) in
      try
        Some
          {
            tid;
            utime = field 11;
            stime = field 12;
            run_ns =
              int_of_string (List.hd (String.split_on_char ' ' (String.trim sched)));
          }
      with Failure _ | Invalid_argument _ -> None))
  | _ -> None

let tasks pid =
  match Sys.readdir (Printf.sprintf "/proc/%d/task" pid) with
  | exception Sys_error _ -> []
  | entries ->
    List.filter_map
      (fun e -> match int_of_string_opt e with Some tid -> task_of pid tid | None -> None)
      (Array.to_list entries)

(* CPU seconds of reaped children (user, system): the kernel accounts a
   child's rusage to its parent when it is waited for, so the delta
   across a reap is exactly that child's lifetime CPU. *)
let children_cpu () =
  let t = Unix.times () in
  (t.Unix.tms_cutime, t.Unix.tms_cstime)

let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Environment record                                                  *)

let trim_file path = Option.map String.trim (read_file path)

(* Filesystem type of the mount holding [path], from mountinfo. *)
let fs_type path =
  let real = try Unix.realpath path with Unix.Unix_error _ -> path in
  let is_prefix mp =
    mp = "/"
    || String.length real >= String.length mp
       && String.sub real 0 (String.length mp) = mp
       && (String.length real = String.length mp || real.[String.length mp] = '/')
  in
  match read_file "/proc/self/mountinfo" with
  | None -> "unknown"
  | Some s ->
    let best = ref (0, "unknown") in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | _ :: _ :: _ :: _ :: mp :: rest when is_prefix mp -> (
          let rec after_dash = function
            | "-" :: fstype :: _ -> Some fstype
            | _ :: tl -> after_dash tl
            | [] -> None
          in
          match after_dash rest with
          | Some fstype when String.length mp >= fst !best ->
            best := (String.length mp, fstype)
          | _ -> ())
        | _ -> ())
      (String.split_on_char '\n' s);
    snd !best

let env_record (p : params) extra =
  Json.Obj
    ([
       ("record", Json.String "environment");
       ("workload", Json.String p.workload);
       ("seed", Json.Int p.seed);
       ("seconds", Json.Float p.seconds);
       ("nproc", Json.Int (Domain.recommended_domain_count ()));
       ( "kernel",
         Json.String (Option.value (trim_file "/proc/sys/kernel/osrelease") ~default:"unknown") );
       ("ocaml", Json.String Sys.ocaml_version);
       ("using_mmsg", Json.Bool (Resets_net_stubs.Batch_io.using_mmsg ()));
       ("crypto_accel", Json.Bool (Resets_crypto.Accel.in_use ()));
     ]
    @ extra)

(* [f ()] repeated until [seconds] have passed, at least twice; the
   results in order. *)
let repeat_for seconds f =
  let deadline = wall () +. seconds in
  let rec go acc =
    let acc = f () :: acc in
    if List.compare_length_with acc 2 >= 0 && wall () >= deadline then List.rev acc else go acc
  in
  go []

(* A seeded stream for the benchmark's own choices (ports aside). *)
let prng p ~stream = Prng.keyed ~seed:p.seed ~stream
