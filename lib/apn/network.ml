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
  mutable sorted : channel array; (* the same channels by (src, dst) *)
}

let create ?(capacity = 1024) ?(record_history = false) () =
  if capacity <= 0 then invalid_arg "Network.create: capacity must be positive";
  { cap = capacity; record_history; by_id = [||]; sorted = [||] }

let capacity t = t.cap

let pair c = (c.src, c.dst)

(* A linear scan: a system has one channel per ordered process pair
   that ever talked, and every model here has one. *)
let rec find t src dst i =
  if i = Array.length t.by_id then begin
    let c = { src; dst; queue = []; history = [] } in
    t.by_id <- Array.append t.by_id [| c |];
    t.sorted <-
      Array.of_list
        (List.merge (fun a b -> compare (pair a) (pair b)) [ c ] (Array.to_list t.sorted));
    c
  end
  else
    let c = t.by_id.(i) in
    if String.equal c.src src && String.equal c.dst dst then c else find t src dst (i + 1)

let channel t ~src ~dst = find t src dst 0

let count t = Array.length t.by_id
let nth t id = t.by_id.(id)
let nth_sorted t k = t.sorted.(k)

let record c msg =
  if not (List.exists (Message.equal msg) c.history) then c.history <- msg :: c.history

exception Full

(* [queue @ [msg]] in one walk, or [Full] when [queue] already holds
   [room] messages *)
let rec append room msg = function
  | [] -> [ msg ]
  | m :: rest -> if room <= 1 then raise_notrace Full else m :: append (room - 1) msg rest

let enqueue t c msg =
  match append t.cap msg c.queue with
  | queue ->
    c.queue <- queue;
    true
  | exception Full -> false

let offer t c msg =
  enqueue t c msg
  && begin
       if t.record_history then record c msg;
       true
     end

let can_send t ~src ~dst = List.compare_length_with (channel t ~src ~dst).queue t.cap < 0

let send t ~src ~dst msg =
  if not (offer t (channel t ~src ~dst) msg) then invalid_arg "Network.send: channel full"

let pop c =
  match c.queue with
  | [] -> invalid_arg "Network.pop: empty channel"
  | m :: rest ->
    c.queue <- rest;
    m

let receive t ~src ~dst =
  let c = channel t ~src ~dst in
  match c.queue with
  | [] -> None
  | _ :: _ -> Some (pop c)

let queue_length t ~src ~dst = List.length (channel t ~src ~dst).queue

let drop_head = receive

let history t ~src ~dst = List.rev (channel t ~src ~dst).history

let inject t ~src ~dst msg = enqueue t (channel t ~src ~dst) msg

let set c ~queue ~history =
  if c.queue != queue then c.queue <- queue;
  if c.history != history then c.history <- history
