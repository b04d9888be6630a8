type channel = {
  src : string;
  dst : string;
  mutable queue : Message.t list; (* head = next to deliver *)
  mutable history : Message.t list; (* newest first, distinct *)
}

type t = {
  cap : int;
  record_history : bool;
  mutable by_id : channel array; (* first-use order: a channel's index is its id *)
  mutable pairs : (string * string) list; (* the channels' (src, dst), sorted *)
}

let create ?(capacity = 1024) ?(record_history = false) () =
  if capacity <= 0 then invalid_arg "Network.create: capacity must be positive";
  { cap = capacity; record_history; by_id = [||]; pairs = [] }

let capacity t = t.cap

(* A linear scan: a system has one channel per ordered process pair
   that ever talked, and every model here has one. *)
let rec find t src dst i =
  if i = Array.length t.by_id then begin
    let c = { src; dst; queue = []; history = [] } in
    t.by_id <- Array.append t.by_id [| c |];
    t.pairs <- List.merge compare [ (src, dst) ] t.pairs;
    c
  end
  else
    let c = t.by_id.(i) in
    if String.equal c.src src && String.equal c.dst dst then c else find t src dst (i + 1)

let channel t ~src ~dst = find t src dst 0

let can_send t ~src ~dst = List.length (channel t ~src ~dst).queue < t.cap

let record c msg =
  if not (List.exists (Message.equal msg) c.history) then c.history <- msg :: c.history

let send t ~src ~dst msg =
  let c = channel t ~src ~dst in
  if List.length c.queue >= t.cap then invalid_arg "Network.send: channel full";
  c.queue <- c.queue @ [ msg ];
  if t.record_history then record c msg

let peek t ~src ~dst =
  match (channel t ~src ~dst).queue with
  | [] -> None
  | m :: _ -> Some m

let receive t ~src ~dst =
  let c = channel t ~src ~dst in
  match c.queue with
  | [] -> None
  | m :: rest ->
    c.queue <- rest;
    Some m

let queue_length t ~src ~dst = List.length (channel t ~src ~dst).queue

let drop_head = receive

let history t ~src ~dst = List.rev (channel t ~src ~dst).history

let inject t ~src ~dst msg =
  let c = channel t ~src ~dst in
  if List.length c.queue >= t.cap then false
  else begin
    c.queue <- c.queue @ [ msg ];
    true
  end

let pairs t = t.pairs

let iter_channels t f = Array.iteri (fun id c -> f id ~queue:c.queue ~history:c.history) t.by_id

let clear t =
  Array.iter
    (fun c ->
      c.queue <- [];
      c.history <- [])
    t.by_id

let set_channel t id ~queue ~history =
  let c = t.by_id.(id) in
  c.queue <- queue;
  c.history <- history
