open Resets_util

type sa = {
  spi : int;
  recovered : bool;
  recovered_from : int;
  sent : int;
  next_seq : int;
  delivered : int;
  min_seq : int;
  max_seq : int;
  fresh_rejected : int;
  lost : int;
  dups : int;
  bad_icv : int;
  edge : int;
  k_now : int;
}

type line = {
  event : string option;
  reason : string option;
  pid : int;
  ts_ns : int;
  elapsed_ns : int;
  role : string;
  sas : sa list;
}

let int_member name j = Option.bind (Json.member name j) Json.as_int
let str_member name j = Option.bind (Json.member name j) Json.as_string
let bool_member name j = Option.bind (Json.member name j) Json.as_bool
let geti ?(default = 0) name j = Option.value (int_member name j) ~default

let sa_to_json s =
  Json.Obj
    [
      ("spi", Json.Int s.spi);
      ("recovered", Json.Bool s.recovered);
      ("recovered_from", Json.Int s.recovered_from);
      ("sent", Json.Int s.sent);
      ("next_seq", Json.Int s.next_seq);
      ("delivered", Json.Int s.delivered);
      ("min_seq", Json.Int s.min_seq);
      ("max_seq", Json.Int s.max_seq);
      ("fresh_rejected", Json.Int s.fresh_rejected);
      ("lost", Json.Int s.lost);
      ("dups", Json.Int s.dups);
      ("bad_icv", Json.Int s.bad_icv);
      ("edge", Json.Int s.edge);
      ("k_now", Json.Int s.k_now);
    ]

let sa_of_json j =
  match int_member "spi" j with
  | None -> None
  | Some spi ->
    Some
      {
        spi;
        recovered = Option.value (bool_member "recovered" j) ~default:false;
        recovered_from = geti "recovered_from" j;
        sent = geti "sent" j;
        next_seq = geti "next_seq" j;
        delivered = geti "delivered" j;
        min_seq = geti "min_seq" j;
        max_seq = geti "max_seq" j;
        fresh_rejected = geti "fresh_rejected" j;
        (* absent in heartbeats predating the field: fall back to the
           coarser counter (equal on a dup-free wire) *)
        lost =
          Option.value (int_member "lost" j)
            ~default:(geti "fresh_rejected" j);
        dups = geti "dups" j;
        bad_icv = geti "bad_icv" j;
        edge = geti "edge" j;
        k_now = geti "k_now" j;
      }

let parse_line s =
  match Json.parse s with
  | Error _ -> None
  | Ok j -> (
    (* heartbeat lines carry a pid; lines without one (foreign JSONL)
       are skipped rather than misattributed *)
    match int_member "pid" j with
    | None -> None
    | Some pid ->
      Some
        {
          event = str_member "event" j;
          reason = str_member "reason" j;
          pid;
          ts_ns = geti "ts_ns" j;
          elapsed_ns = geti "elapsed_ns" j;
          role = Option.value (str_member "role" j) ~default:"";
          sas =
            (match Option.bind (Json.member "sas" j) Json.as_list with
            | None -> []
            | Some l -> List.filter_map sa_of_json l);
        })

let load path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let out = ref [] in
    (try
       while true do
         let l = input_line ic in
         if String.trim l <> "" then
           match parse_line l with
           | Some line -> out := line :: !out
           | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !out
  end

let of_pid lines ~pid = List.filter (fun l -> l.pid = pid) lines
let last = function [] -> None | l -> Some (List.nth l (List.length l - 1))

let total f line = List.fold_left (fun acc sa -> acc + f sa) 0 line.sas

let all_delivering line =
  line.sas <> [] && List.for_all (fun sa -> sa.delivered > 0) line.sas

let first_delivering lines =
  List.find_opt (fun l -> l.event = None && all_delivering l) lines

let terminal lines =
  List.find_opt (fun l -> l.event = Some "shutdown") (List.rev lines)
