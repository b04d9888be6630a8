open Resets_util

type burst_loss = {
  p_gb : float;
  p_bg : float;
  good_loss : float;
  bad_loss : float;
}

type faults = {
  loss_prob : float;
  dup_prob : float;
  reorder_prob : float;
  reorder_delay : Time.t;
  burst : burst_loss option;
}

let no_faults =
  {
    loss_prob = 0.;
    dup_prob = 0.;
    reorder_prob = 0.;
    reorder_delay = Time.zero;
    burst = None;
  }

(* A delay in the largest unit that holds it exactly: 10ms, 1500us. *)
let delay_to_string t =
  let ns = Time.to_ns t in
  let unit, scale =
    List.find
      (fun (_, scale) -> Int64.rem ns scale = 0L)
      [ ("s", 1_000_000_000L); ("ms", 1_000_000L); ("us", 1_000L); ("ns", 1L) ]
  in
  Int64.to_string (Int64.div ns scale) ^ unit

let faults_to_string f =
  let p = Json.float_to_string in
  String.concat ","
    (List.concat
       [
         (if f.loss_prob <> 0. then [ "drop=" ^ p f.loss_prob ] else []);
         (if f.dup_prob <> 0. then [ "dup=" ^ p f.dup_prob ] else []);
         (if f.reorder_prob <> 0. || not (Time.equal f.reorder_delay Time.zero)
          then
            [
              Printf.sprintf "reorder=%s:%s" (p f.reorder_prob)
                (delay_to_string f.reorder_delay);
            ]
          else []);
         (match f.burst with
         | Some b ->
           [ Printf.sprintf "ge=%s:%s:%s" (p b.p_gb) (p b.p_bg) (p b.bad_loss) ]
         | None -> []);
       ])

let faults_of_string str =
  let ( let* ) = Result.bind in
  let prob key v =
    match float_of_string_opt v with
    | Some p when Float.is_finite p && p >= 0. && p <= 1. -> Ok p
    | _ -> Error (Printf.sprintf "%s: %S is not a probability in [0, 1]" key v)
  in
  let field acc part =
    let* f = acc in
    match String.index_opt part '=' with
    | None -> Error (Printf.sprintf "%s: expected %s=VALUE" part part)
    | Some i -> (
      let key = String.sub part 0 i in
      let value = String.sub part (i + 1) (String.length part - i - 1) in
      match (key, String.split_on_char ':' value) with
      | "drop", [ v ] ->
        let* p = prob key v in
        Ok { f with loss_prob = p }
      | "dup", [ v ] ->
        let* p = prob key v in
        Ok { f with dup_prob = p }
      | "reorder", [ v; d ] -> (
        let* p = prob key v in
        match Time.duration_of_string d with
        | Some delay -> Ok { f with reorder_prob = p; reorder_delay = delay }
        | None -> Error (Printf.sprintf "reorder: %S is not a duration" d))
      | "ge", [ enter; exit_; drop ] ->
        let* p_gb = prob key enter in
        let* p_bg = prob key exit_ in
        let* bad_loss = prob key drop in
        Ok { f with burst = Some { p_gb; p_bg; good_loss = 0.; bad_loss } }
      | ("drop" | "dup"), _ ->
        Error (Printf.sprintf "%s: expected %s=P" key key)
      | "reorder", _ ->
        Error "reorder: expected reorder=P:DURATION, e.g. reorder=0.02:10ms"
      | "ge", _ -> Error "ge: expected ge=ENTER:EXIT:DROP"
      | _ ->
        Error
          (key ^ ": unknown impairment field (expected drop, dup, reorder, ge)"))
  in
  String.split_on_char ',' str
  |> List.map String.trim
  |> List.filter (( <> ) "")
  |> List.fold_left field (Ok no_faults)

type 'a t = {
  engine : Engine.t;
  name : string;
  trace : Trace.t option;
  faults : faults;
  base_latency : Time.t;
  jitter : Time.t;
  prng : Prng.t option;
  mutable deliver : ('a -> unit) option;
  mutable observers : ('a -> unit) list;
  mutable up : bool;
  mutable burst_bad : bool; (* Gilbert–Elliott chain state *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable injected : int;
  mutable burst_dropped : int;
}

let faults_need_prng f jitter =
  f.loss_prob > 0. || f.dup_prob > 0. || f.reorder_prob > 0.
  || f.burst <> None
  || Time.(Time.zero < jitter)

let create ?(name = "link") ?trace ?(faults = no_faults) ?(jitter = Time.zero) ?prng
    ~latency engine =
  let draws = faults_need_prng faults jitter in
  if draws && prng = None then
    invalid_arg "Link.create: faults or jitter require a prng";
  {
    engine;
    name;
    trace;
    faults;
    base_latency = latency;
    jitter;
    (* A fault-free link draws nothing: every sample would be a
       Bernoulli(0), always false, and each link owns its generator. *)
    prng = (if draws then prng else None);
    deliver = None;
    observers = [];
    up = true;
    burst_bad = false;
    sent = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    reordered = 0;
    injected = 0;
    burst_dropped = 0;
  }

let tell t event detail =
  match t.trace with
  | None -> ()
  | Some trace ->
    Trace.record trace ~time:(Engine.now t.engine) ~source:t.name ~event detail

let set_deliver t f = t.deliver <- Some f

let on_transit t f = t.observers <- t.observers @ [ f ]

let set_up t up = t.up <- up

let deliver_now t packet =
  match t.deliver with
  | Some f ->
    t.delivered <- t.delivered + 1;
    f packet
  | None -> t.dropped <- t.dropped + 1

let sample_jitter t =
  match t.prng with
  | None -> Time.zero
  | Some prng ->
    let bound = Int64.to_int (Time.to_ns t.jitter) in
    if bound = 0 then Time.zero
    else Time.of_ns (Int64.of_int (Prng.int prng (bound + 1)))

let schedule_delivery t ~extra packet =
  let delay = Time.add (Time.add t.base_latency extra) (sample_jitter t) in
  ignore (Engine.schedule_after t.engine ~after:delay (fun () -> deliver_now t packet))

let send t packet =
  t.sent <- t.sent + 1;
  List.iter (fun f -> f packet) t.observers;
  if not t.up then begin
    t.dropped <- t.dropped + 1;
    tell t "link.drop" "down"
  end
  else begin
    let prng_sample p =
      match t.prng with
      | None -> false
      | Some prng -> Prng.bernoulli prng p
    in
    (* Gilbert–Elliott correlated loss: a two-state Markov chain
       stepped once per packet; the burst draws only happen when the
       mode is configured, so i.i.d.-only runs consume the same PRNG
       stream as before the mode existed. *)
    let burst_lost =
      match (t.faults.burst, t.prng) with
      | Some b, Some prng ->
        if t.burst_bad then begin
          if Prng.bernoulli prng b.p_bg then t.burst_bad <- false
        end
        else if Prng.bernoulli prng b.p_gb then t.burst_bad <- true;
        Prng.bernoulli prng
          (if t.burst_bad then b.bad_loss else b.good_loss)
      | Some _, None | None, _ -> false
    in
    if prng_sample t.faults.loss_prob then begin
      t.dropped <- t.dropped + 1;
      tell t "link.drop" "loss"
    end
    else if burst_lost then begin
      t.dropped <- t.dropped + 1;
      t.burst_dropped <- t.burst_dropped + 1;
      tell t "link.drop" "burst"
    end
    else begin
      let extra =
        if prng_sample t.faults.reorder_prob then begin
          t.reordered <- t.reordered + 1;
          t.faults.reorder_delay
        end
        else Time.zero
      in
      schedule_delivery t ~extra packet;
      if prng_sample t.faults.dup_prob then begin
        t.duplicated <- t.duplicated + 1;
        tell t "link.dup" "";
        schedule_delivery t ~extra packet
      end
    end
  end

let inject t packet =
  t.injected <- t.injected + 1;
  if not t.up then begin
    (* A downed link carries nothing, adversarial or not; counting the
       drop keeps sent+injected = delivered+dropped+in-flight. *)
    t.dropped <- t.dropped + 1;
    tell t "link.drop" "down (inject)"
  end
  else begin
    tell t "link.inject" "";
    schedule_delivery t ~extra:Time.zero packet
  end

let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped
let duplicated t = t.duplicated
let reordered t = t.reordered
let injected t = t.injected
let burst_dropped t = t.burst_dropped
