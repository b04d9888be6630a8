type t = int64

let zero = 0L

let of_ns ns =
  if Int64.compare ns 0L < 0 then invalid_arg "Time.of_ns: negative";
  ns

let of_us us = of_ns (Int64.mul (Int64.of_int us) 1_000L)

let of_ms ms = of_ns (Int64.mul (Int64.of_int ms) 1_000_000L)

let of_sec s =
  if not (Float.is_finite s) || s < 0. then invalid_arg "Time.of_sec: invalid";
  Int64.of_float (s *. 1e9)

let to_ns t = t
let to_us t = Int64.to_float t /. 1e3
let to_sec t = Int64.to_float t /. 1e9

let add = Int64.add

let diff a b =
  if Int64.compare b a > 0 then invalid_arg "Time.diff: negative result";
  Int64.sub a b

let mul t k =
  if k < 0 then invalid_arg "Time.mul: negative factor";
  Int64.mul t (Int64.of_int k)

let compare = Int64.compare
let equal = Int64.equal
let ( <= ) a b = compare a b <= 0
let ( < ) a b = compare a b < 0
let min a b = if a <= b then a else b
let max a b = if a <= b then b else a

let pp ppf t =
  let ns = Int64.to_float t in
  if Stdlib.( < ) ns 1e3 then Format.fprintf ppf "%.0fns" ns
  else if Stdlib.( < ) ns 1e6 then Format.fprintf ppf "%.2fus" (ns /. 1e3)
  else if Stdlib.( < ) ns 1e9 then Format.fprintf ppf "%.3fms" (ns /. 1e6)
  else Format.fprintf ppf "%.4fs" (ns /. 1e9)

(* Human-readable durations for daemon logs and bench tables:
   "512 ns", "1.25 ms" — largest unit that keeps the value >= 1,
   trailing zeros trimmed, one space before the unit. Sub-microsecond
   values print as exact integer nanoseconds, so every printed string
   parses back ({!duration_of_string}) to within half of the smallest
   printed decimal — the round-trip contract the tests pin. *)
let duration_units = [| ("s", 1e9); ("ms", 1e6); ("us", 1e3) |]

let duration_to_string t =
  let ns = Int64.to_float t in
  let rec pick i =
    if Stdlib.( >= ) i (Array.length duration_units) then
      Printf.sprintf "%.0f ns" ns
    else
      let unit, scale = duration_units.(i) in
      if Stdlib.( >= ) ns scale then begin
        let v = ns /. scale in
        (* up to three decimals, trimmed: 1.25 ms, not 1.250 ms *)
        let s = Printf.sprintf "%.3f" v in
        let s =
          if String.contains s '.' then begin
            let stop = ref (String.length s) in
            while !stop > 1 && s.[!stop - 1] = '0' do decr stop done;
            if !stop > 1 && s.[!stop - 1] = '.' then decr stop;
            String.sub s 0 !stop
          end
          else s
        in
        s ^ " " ^ unit
      end
      else pick (i + 1)
  in
  pick 0

let duration_of_string s =
  let s = String.trim s in
  (* split the trailing unit (letters) from the leading number *)
  let n = String.length s in
  let is_unit_char c =
    Stdlib.(c >= 'a' && c <= 'z') || Stdlib.(c >= 'A' && c <= 'Z')
  in
  let cut = ref n in
  while !cut > 0 && is_unit_char s.[!cut - 1] do decr cut done;
  if !cut = 0 || !cut = n then None
  else
    let num = String.trim (String.sub s 0 !cut) in
    let unit = String.sub s !cut (n - !cut) in
    let scale =
      match String.lowercase_ascii unit with
      | "ns" -> Some 1.
      | "us" -> Some 1e3
      | "ms" -> Some 1e6
      | "s" -> Some 1e9
      | _ -> None
    in
    match (float_of_string_opt num, scale) with
    | Some v, Some sc when Stdlib.( >= ) v 0. && Float.is_finite v ->
      Some (Int64.of_float (Float.round (v *. sc)))
    | _ -> None
