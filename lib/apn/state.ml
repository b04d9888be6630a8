type layout = {
  names : string array;
  index : (string, int) Hashtbl.t;
}

type t = {
  layout : layout;
  slots : Value.t array;
}

let make_layout ~who names =
  let names = Array.of_list (List.sort String.compare names) in
  let index = Hashtbl.create (Array.length names) in
  Array.iteri
    (fun k name ->
      if Hashtbl.mem index name then invalid_arg (who ^ ": duplicate variable " ^ name);
      Hashtbl.replace index name k)
    names;
  { names; index }

let layout names = make_layout ~who:"State.layout" names
let slot l name = Hashtbl.find l.index name

let create bindings =
  let layout = make_layout ~who:"State.create" (List.map fst bindings) in
  let slots = Array.make (Array.length layout.names) (Value.Int 0) in
  List.iter (fun (name, v) -> slots.(slot layout name) <- Value.canonical v) bindings;
  { layout; slots }

let of_slots layout slots =
  if Array.length slots < Array.length layout.names then
    invalid_arg "State.of_slots: fewer values than variables";
  { layout; slots }

let slots t = t.slots
let length t = Array.length t.layout.names

let get t name = t.slots.(slot t.layout name)
let set t name v = t.slots.(slot t.layout name) <- v

let get_int t name = Value.int (get t name)
let set_int t name i = set t name (Value.Int i)
let get_bool t name = Value.bool (get t name)
let set_bool t name b = set t name (Value.Bool b)
let get_bool_array t name = Value.bool_array (get t name)

let snapshot t =
  Array.to_list t.layout.names
  |> List.mapi (fun k name -> (name, Value.canonical t.slots.(k)))

let copy t = { t with slots = Array.map Value.canonical t.slots }

let pp ppf t =
  Format.fprintf ppf "{";
  List.iter (fun (name, v) -> Format.fprintf ppf "%s=%a; " name Value.pp v) (snapshot t);
  Format.fprintf ppf "}"
