open Resets_util

type ge_spec = {
  p_enter_bad : float;
  p_exit_bad : float;
  bad_drop_prob : float;
}

type spec = {
  drop_prob : float;
  dup_prob : float;
  reorder_prob : float;
  delay_prob : float;
  delay_frames : int;
  ge : ge_spec option;
}

let none =
  {
    drop_prob = 0.;
    dup_prob = 0.;
    reorder_prob = 0.;
    delay_prob = 0.;
    delay_frames = 1;
    ge = None;
  }

let is_none s = s = none

let spec_to_string s =
  if is_none s then ""
  else
    String.concat ","
      (List.filter
         (fun x -> x <> "")
         [
           (if s.drop_prob > 0. then Printf.sprintf "drop=%g" s.drop_prob else "");
           (if s.dup_prob > 0. then Printf.sprintf "dup=%g" s.dup_prob else "");
           (if s.reorder_prob > 0. then
              Printf.sprintf "reorder=%g" s.reorder_prob
            else "");
           (if s.delay_prob > 0. then
              Printf.sprintf "delay=%g:%d" s.delay_prob s.delay_frames
            else "");
           (match s.ge with
           | Some g ->
             Printf.sprintf "ge=%g:%g:%g" g.p_enter_bad g.p_exit_bad
               g.bad_drop_prob
           | None -> "");
         ])

let spec_of_string str =
  let str = String.trim str in
  if str = "" then Ok none
  else
    let parse_float v =
      match float_of_string_opt v with
      | Some f when f >= 0. && f <= 1. -> Ok f
      | _ -> Error (Printf.sprintf "not a probability: %S" v)
    in
    let ( let* ) = Result.bind in
    List.fold_left
      (fun acc kv ->
        let* spec = acc in
        match String.split_on_char '=' kv with
        | [ "drop"; v ] ->
          let* p = parse_float v in
          Ok { spec with drop_prob = p }
        | [ "dup"; v ] ->
          let* p = parse_float v in
          Ok { spec with dup_prob = p }
        | [ "reorder"; v ] ->
          let* p = parse_float v in
          Ok { spec with reorder_prob = p }
        | [ "delay"; v ] -> (
          match String.split_on_char ':' v with
          | [ p ] ->
            let* p = parse_float p in
            Ok { spec with delay_prob = p }
          | [ p; frames ] -> (
            let* p = parse_float p in
            match int_of_string_opt frames with
            | Some n when n >= 1 ->
              Ok { spec with delay_prob = p; delay_frames = n }
            | _ -> Error (Printf.sprintf "bad delay frame count: %S" frames))
          | _ -> Error (Printf.sprintf "bad delay spec: %S" v))
        | [ "ge"; v ] -> (
          match String.split_on_char ':' v with
          | [ enter; exit_; drop ] ->
            let* p_enter_bad = parse_float enter in
            let* p_exit_bad = parse_float exit_ in
            let* bad_drop_prob = parse_float drop in
            Ok { spec with ge = Some { p_enter_bad; p_exit_bad; bad_drop_prob } }
          | _ -> Error (Printf.sprintf "bad ge spec (want enter:exit:drop): %S" v))
        | _ -> Error (Printf.sprintf "unknown impairment %S" kv))
      (Ok none)
      (String.split_on_char ',' str)

type held = {
  pkt : Packet.t;
  copies : int;
  mutable remaining : int; (* sends left before release *)
}

type t = {
  spec : spec;
  prng : Prng.t;
  mutable ge_bad : bool;
  mutable queue : held list; (* frames held back, oldest first *)
  mutable offered : int;
  mutable dropped : int;
  mutable dropped_burst : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable delayed : int;
}

let create ~spec ~prng =
  {
    spec;
    prng;
    ge_bad = false;
    queue = [];
    offered = 0;
    dropped = 0;
    dropped_burst = 0;
    duplicated = 0;
    reordered = 0;
    delayed = 0;
  }

let offered t = t.offered
let dropped t = t.dropped
let dropped_burst t = t.dropped_burst
let duplicated t = t.duplicated
let reordered t = t.reordered
let delayed t = t.delayed
let held t = List.length t.queue

(* Decide this frame's fate. Rolls are drawn in a fixed order — GE
   state advance, burst drop, iid drop, dup, reorder, delay — and
   dropped frames short-circuit, so the impairment pattern is a pure
   function of the seed and the offered-frame sequence. *)
let roll t =
  t.offered <- t.offered + 1;
  (match t.spec.ge with
  | None -> ()
  | Some g ->
    t.ge_bad <-
      (if t.ge_bad then not (Prng.bernoulli t.prng g.p_exit_bad)
       else Prng.bernoulli t.prng g.p_enter_bad));
  let burst_drop =
    match t.spec.ge with
    | Some g when t.ge_bad -> Prng.bernoulli t.prng g.bad_drop_prob
    | _ -> false
  in
  if burst_drop then begin
    t.dropped_burst <- t.dropped_burst + 1;
    `Drop
  end
  else if Prng.bernoulli t.prng t.spec.drop_prob then begin
    t.dropped <- t.dropped + 1;
    `Drop
  end
  else begin
    let copies = if Prng.bernoulli t.prng t.spec.dup_prob then 2 else 1 in
    if copies = 2 then t.duplicated <- t.duplicated + 1;
    if Prng.bernoulli t.prng t.spec.reorder_prob then begin
      t.reordered <- t.reordered + 1;
      `Hold (copies, 1)
    end
    else if Prng.bernoulli t.prng t.spec.delay_prob then begin
      t.delayed <- t.delayed + 1;
      `Hold (copies, t.spec.delay_frames)
    end
    else `Emit copies
  end

(* Apply the impairment to one offered frame, [emit]ting whatever
   should reach the medium now: the frame itself (possibly twice),
   then any held frame whose countdown expired — so a held frame
   re-enters the stream AFTER a later one, i.e. reordered. *)
let offer t pkt ~emit =
  let release_due () =
    let due, still =
      List.partition
        (fun h ->
          h.remaining <- h.remaining - 1;
          h.remaining <= 0)
        t.queue
    in
    t.queue <- still;
    List.iter (fun h -> for _ = 1 to h.copies do emit h.pkt done) due
  in
  match roll t with
  | `Drop -> ()
  | `Hold (copies, frames) ->
    t.queue <- t.queue @ [ { pkt; copies; remaining = frames } ]
  | `Emit copies ->
    for _ = 1 to copies do emit pkt done;
    release_due ()

let wrap t send pkt = offer t pkt ~emit:send
