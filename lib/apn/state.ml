type var = Value.t ref
type t = (string, var) Hashtbl.t

let create bindings =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (name, v) ->
      if Hashtbl.mem t name then invalid_arg ("State.create: duplicate variable " ^ name);
      Hashtbl.replace t name (ref (Value.canonical v)))
    bindings;
  t

let var t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None -> raise Not_found

let get t name = !(var t name)
let set t name v = var t name := v

let get_int t name = Value.int (get t name)
let set_int t name i = set t name (Value.Int i)
let get_bool t name = Value.bool (get t name)
let set_bool t name b = set t name (Value.Bool b)
let get_bool_array t name = Value.bool_array (get t name)

let by_name t =
  Hashtbl.fold (fun name r acc -> (name, r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot t = List.map (fun (name, r) -> (name, Value.canonical !r)) (by_name t)

let vars t = Array.of_list (List.map snd (by_name t))
let read r = !r
let write r v = r := v

let copy t = create (snapshot t)

let pp ppf t =
  Format.fprintf ppf "{";
  List.iter (fun (name, v) -> Format.fprintf ppf "%s=%a; " name Value.pp v) (snapshot t);
  Format.fprintf ppf "}"
