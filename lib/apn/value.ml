type t =
  | Int of int
  | Bool of bool
  | Bool_array of bool array

exception Type_error of string

(* One box per small int: the models' counters, sequence numbers and
   the -1 of an idle SAVE all fall in this range. *)
let small_min = -16
let small = Array.init 1040 (fun i -> Int (i + small_min))

let of_int i =
  if i >= small_min && i < small_min + Array.length small then
    Array.unsafe_get small (i - small_min)
  else Int i

let int = function
  | Int i -> i
  | Bool _ | Bool_array _ -> raise (Type_error "expected int")

let bool = function
  | Bool b -> b
  | Int _ | Bool_array _ -> raise (Type_error "expected bool")

let bool_array = function
  | Bool_array a -> a
  | Int _ | Bool _ -> raise (Type_error "expected bool array")

let equal a b =
  match (a, b) with
  | Int x, Int y -> Int.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Bool_array x, Bool_array y -> x = y
  | (Int _ | Bool _ | Bool_array _), _ -> false

let compare a b = Stdlib.compare a b

let canonical = function
  | (Int _ | Bool _) as v -> v
  | Bool_array a -> Bool_array (Array.copy a)

let pp ppf = function
  | Int i -> Format.pp_print_int ppf i
  | Bool b -> Format.pp_print_bool ppf b
  | Bool_array a ->
    Format.fprintf ppf "[%s]"
      (String.concat ";" (Array.to_list (Array.map (fun b -> if b then "T" else "F") a)))
