open Resets_util

type spec = {
  write_fail_prob : float;
  torn_prob : float;
  read_corrupt_prob : float;
  read_stale_prob : float;
  latency_factor : float;
}

let none =
  {
    write_fail_prob = 0.;
    torn_prob = 0.;
    read_corrupt_prob = 0.;
    read_stale_prob = 0.;
    latency_factor = 1.;
  }

let is_none s = s = none

type t = { spec : spec; prng : Prng.t }

let create ~spec ~prng = { spec; prng }

let spec t = t.spec

let latency_factor t = t.spec.latency_factor

type write_outcome = [ `Ok | `Fail | `Torn of int ]

(* One PRNG roll per begun write, drawn at begin time in write order so
   the fault pattern is a pure function of the plan's seed. The torn
   roll is only drawn for multi-entry writes — single-key saves keep
   their historical one-roll cost, which is what makes the extraction
   byte-compatible with the committed chaos artifacts. *)
let roll_write t ~n_entries : write_outcome =
  if Prng.bernoulli t.prng t.spec.write_fail_prob then `Fail
  else if n_entries > 1 && Prng.bernoulli t.prng t.spec.torn_prob then
    `Torn (1 + Prng.int t.prng (n_entries - 1))
  else `Ok

type read_outcome = [ `Ok | `Corrupt_bit of int | `Stale ]

let roll_read t : read_outcome =
  if Prng.bernoulli t.prng t.spec.read_corrupt_prob then
    (* a flipped bit somewhere in the record body *)
    `Corrupt_bit (Prng.int t.prng 30)
  else if Prng.bernoulli t.prng t.spec.read_stale_prob then `Stale
  else `Ok

(* The entries of a write that become durable: all of them, none, or
   the torn prefix. *)
let landed outcome entries =
  match outcome with
  | `Ok -> entries
  | `Fail -> []
  | `Torn prefix -> List.filteri (fun i _ -> i < prefix) entries

let count_write (n : Store.tally) outcome =
  match outcome with
  | `Ok -> n.completed <- n.completed + 1
  | `Fail -> n.failed <- n.failed + 1
  | `Torn _ ->
    n.failed <- n.failed + 1;
    n.torn <- n.torn + 1

(* One checked read on any medium: the roll picks the record served
   (the latest, a bit-flipped latest, or the superseded one when it
   exists), then the checksum and the generation classify it. *)
let serve plan (n : Store.tally) ~key ~(latest : Envelope.t) ~prev =
  let served : Envelope.t =
    match plan with
    | None -> latest
    | Some t -> (
      match roll_read t with
      | `Ok -> latest
      | `Corrupt_bit bit -> { latest with value = latest.value lxor (1 lsl bit) }
      | `Stale -> Option.value (prev ()) ~default:latest)
  in
  if not (Envelope.verify ~key served) then begin
    n.corrupt <- n.corrupt + 1;
    Store.Corrupt
  end
  else if served.gen < latest.gen then begin
    n.stale <- n.stale + 1;
    Store.Stale served.value
  end
  else Store.Fetched served.value

let spec_to_string s =
  let f = Json.float_to_string in
  Printf.sprintf "write_fail=%s,torn=%s,corrupt=%s,stale=%s,latency=%s"
    (f s.write_fail_prob) (f s.torn_prob) (f s.read_corrupt_prob)
    (f s.read_stale_prob) (f s.latency_factor)

let spec_of_string str =
  let parse_field acc part =
    match acc with
    | Error _ -> acc
    | Ok spec -> (
      match String.index_opt part '=' with
      | None -> Error (Printf.sprintf "expected key=value, got %S" part)
      | Some i -> (
        let key = String.sub part 0 i
        and v = String.sub part (i + 1) (String.length part - i - 1) in
        let prob set =
          match float_of_string_opt v with
          | Some p when Float.is_finite p && p >= 0. && p <= 1. -> Ok (set p)
          | _ ->
            Error (Printf.sprintf "%s: %S is not a probability in [0, 1]" key v)
        in
        match key with
        | "write_fail" -> prob (fun p -> { spec with write_fail_prob = p })
        | "torn" -> prob (fun p -> { spec with torn_prob = p })
        | "corrupt" -> prob (fun p -> { spec with read_corrupt_prob = p })
        | "stale" -> prob (fun p -> { spec with read_stale_prob = p })
        | "latency" -> (
          match float_of_string_opt v with
          | Some l when Float.is_finite l && l >= 0. ->
            Ok { spec with latency_factor = l }
          | _ ->
            Error (Printf.sprintf "latency: %S is not a finite factor >= 0" v))
        | _ ->
          Error
            (Printf.sprintf
               "unknown fault field %S (expected write_fail, torn, corrupt, \
                stale, latency)"
               key)))
  in
  if String.trim str = "" then Ok none
  else
    List.fold_left parse_field (Ok none)
      (List.filter
         (fun s -> s <> "")
         (List.map String.trim (String.split_on_char ',' str)))
