open Resets_util

type level = Debug | Info | Warn

type entry = {
  time : Time.t;
  level : level;
  source : string;
  event : string;
  detail : string;
}

type t = { ring : entry Ring.t; mutable total : int }

let create ?(capacity = 65536) () = { ring = Ring.create capacity; total = 0 }

let record t ~time ?(level = Info) ~source ~event detail =
  ignore (Ring.push t.ring { time; level; source; event; detail });
  t.total <- t.total + 1

let entries t = Ring.to_list t.ring

let count t = t.total

let find t ~event =
  List.filter (fun e -> String.equal e.event event) (entries t)

let pp_level ppf = function
  | Debug -> Format.pp_print_string ppf "debug"
  | Info -> Format.pp_print_string ppf "info"
  | Warn -> Format.pp_print_string ppf "warn"

let level_tag = function Debug -> "debug" | Info -> "info" | Warn -> "warn"

let entry_to_json e =
  Json.Obj
    [
      ("t_ns", Json.Int (Int64.to_int (Time.to_ns e.time)));
      ("level", Json.String (level_tag e.level));
      ("source", Json.String e.source);
      ("event", Json.String e.event);
      ("detail", Json.String e.detail);
    ]

let dump_jsonl oc entries =
  List.iter
    (fun e ->
      output_string oc (Json.to_string (entry_to_json e));
      output_char oc '\n')
    entries

let pp_entry ppf e =
  Format.fprintf ppf "[%a] %a %-8s %-16s %s" Time.pp e.time pp_level e.level
    e.source e.event e.detail

let dump ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) (entries t)
