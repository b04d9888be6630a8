open Resets_util

type step =
  | Proc_action of { proc : string; index : int; label : string }
  | Replay of { src : string; dst : string; msg : Message.t }
  | Drop of { src : string; dst : string }

let step_label = function
  | Proc_action { proc; label; _ } -> Printf.sprintf "%s.%s" proc label
  | Replay { src; dst; msg; _ } ->
    Format.asprintf "replay(%s->%s, %a)" src dst Message.pp msg
  | Drop { src; dst } -> Printf.sprintf "drop(%s->%s)" src dst


type t = {
  net : Network.t;
  procs : (Process.t * State.t) array;  (* declaration order, as snapshots pack them *)
  adversary : bool;
  lossy : bool;
  buf : Buffer.t;  (* snapshots are written here *)
}

let create ?(capacity = 1024) ?(adversary = false) ?(lossy = false) processes =
  let net = Network.create ~capacity ~record_history:adversary () in
  let procs =
    Array.of_list (List.map (fun (p : Process.t) -> (p, State.copy p.init)) processes)
  in
  Array.iteri
    (fun i ((p : Process.t), _) ->
      for j = 0 to i - 1 do
        if String.equal (fst procs.(j)).name p.name then
          invalid_arg ("System.create: duplicate process " ^ p.name)
      done)
    procs;
  { net; procs; adversary; lossy; buf = Buffer.create 128 }

let find t name =
  let rec go i =
    if i = Array.length t.procs then raise Not_found
    else
      let ((p : Process.t), _) as entry = t.procs.(i) in
      if String.equal p.name name then entry else go (i + 1)
  in
  go 0

let state_of t name = snd (find t name)

let network t = t.net

let context t name : Process.context =
  {
    self = name;
    send =
      (fun ~dst msg ->
        (* A send into a full channel loses the message: the paper's
           channels may lose messages, and this keeps exploration
           bounded without disabling the sender's action. *)
        if Network.can_send t.net ~src:name ~dst then
          Network.send t.net ~src:name ~dst msg);
  }

let action_enabled t name st = function
  | Process.Internal { guard; _ } -> guard st
  | Process.Receive { from_; guard; _ } ->
    guard st && Network.peek t.net ~src:from_ ~dst:name <> None

let enabled_steps t =
  let proc_steps =
    List.concat_map
      (fun ((p : Process.t), st) ->
        List.concat
          (List.mapi
             (fun index action ->
               if action_enabled t p.name st action then
                 [ Proc_action { proc = p.name; index; label = Process.action_label action } ]
               else [])
             p.actions))
      (Array.to_list t.procs)
  in
  let channel_steps =
    List.concat_map
      (fun (src, dst) ->
        let replays =
          if t.adversary then
            List.map (fun msg -> Replay { src; dst; msg }) (Network.history t.net ~src ~dst)
          else []
        in
        let drops =
          if t.lossy && Network.queue_length t.net ~src ~dst > 0 then [ Drop { src; dst } ]
          else []
        in
        replays @ drops)
      (Network.pairs t.net)
  in
  proc_steps @ channel_steps

let execute t step =
  match step with
  | Proc_action { proc; index; _ } -> begin
    let p, st = find t proc in
    let action = List.nth p.actions index in
    if not (action_enabled t proc st action) then
      invalid_arg ("System.execute: disabled step " ^ step_label step);
    match action with
    | Process.Internal { effect; _ } -> effect (context t proc) st
    | Process.Receive { from_; effect; _ } -> (
      match Network.receive t.net ~src:from_ ~dst:proc with
      | Some msg -> effect (context t proc) st msg
      | None -> assert false)
  end
  | Replay { src; dst; msg } ->
    if not t.adversary then invalid_arg "System.execute: adversary disabled";
    (* Injection into a full channel is simply ineffective. *)
    ignore (Network.inject t.net ~src ~dst msg)
  | Drop { src; dst } ->
    if not t.lossy then invalid_arg "System.execute: lossy channels disabled";
    ignore (Network.drop_head t.net ~src ~dst)

let step_random prng t =
  match enabled_steps t with
  | [] -> None
  | steps ->
    let arr = Array.of_list steps in
    let step = Prng.choose prng arr in
    execute t step;
    Some step

let run_random ?(stop_when = fun _ -> false) prng ~steps t =
  let rec loop executed =
    if executed >= steps || stop_when t then executed
    else
      match step_random prng t with
      | None -> executed
      | Some _ -> loop (executed + 1)
  in
  loop 0

(* A snapshot is one string:
   - for each process in declaration order, its variables in name
     order, each a tagged value: 0 then a zigzag varint (int), 1
     (false), 2 (true), or 3, a varint length and one byte per element
     (bool array);
   - for each channel with a non-empty queue or history, in channel-id
     order: id + 1, then the queue and the history, each a varint
     count of messages; a message is its tag (varint length, bytes),
     then a varint count of arguments and each argument as a zigzag
     varint;
   - a 0 byte ending the channels.
   Every field is tagged or length-prefixed, so the encoding is
   injective: equal strings are equal states. *)
type snapshot = string

let add_uint buf n =
  let rec go n =
    if n >= 0 && n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
  in
  go n

let add_int buf i = add_uint buf ((i lsl 1) lxor (i asr (Sys.int_size - 1)))

let add_value buf = function
  | Value.Int i ->
    Buffer.add_char buf '\000';
    add_int buf i
  | Value.Bool b -> Buffer.add_char buf (if b then '\002' else '\001')
  | Value.Bool_array a ->
    Buffer.add_char buf '\003';
    add_uint buf (Array.length a);
    Array.iter (fun b -> Buffer.add_char buf (if b then '\001' else '\000')) a

let add_messages buf msgs =
  add_uint buf (List.length msgs);
  List.iter
    (fun (m : Message.t) ->
      add_uint buf (String.length m.tag);
      Buffer.add_string buf m.tag;
      add_uint buf (List.length m.args);
      List.iter (add_int buf) m.args)
    msgs

let snapshot t =
  let buf = t.buf in
  Buffer.clear buf;
  Array.iter
    (fun (_, st) ->
      let slots = State.slots st in
      for k = 0 to State.length st - 1 do
        add_value buf slots.(k)
      done)
    t.procs;
  Network.iter_channels t.net (fun id ~queue ~history ->
      if queue <> [] || history <> [] then begin
        add_uint buf (id + 1);
        add_messages buf queue;
        add_messages buf history
      end);
  Buffer.add_char buf '\000';
  Buffer.contents buf

type cursor = {
  s : string;
  mutable pos : int;
}

let byte c =
  let b = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  b

let uint c =
  let rec go acc shift =
    let b = byte c in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then acc else go acc (shift + 7)
  in
  go 0 0

let int c =
  let n = uint c in
  (n lsr 1) lxor -(n land 1)

let value c =
  match byte c with
  | 0 -> Value.Int (int c)
  | 1 -> Value.Bool false
  | 2 -> Value.Bool true
  | 3 ->
    let n = uint c in
    Value.Bool_array (Array.init n (fun _ -> byte c = 1))
  | _ -> invalid_arg "System.restore: malformed snapshot"

let messages c =
  List.init (uint c) (fun _ ->
      let len = uint c in
      let tag = String.sub c.s c.pos len in
      c.pos <- c.pos + len;
      let args = List.init (uint c) (fun _ -> int c) in
      { Message.tag; args })

let restore t snap =
  let c = { s = snap; pos = 0 } in
  Array.iter
    (fun (_, st) ->
      let slots = State.slots st in
      for k = 0 to State.length st - 1 do
        slots.(k) <- value c
      done)
    t.procs;
  Network.clear t.net;
  let rec channels () =
    match uint c with
    | 0 -> ()
    | id ->
      let queue = messages c in
      let history = messages c in
      Network.set_channel t.net (id - 1) ~queue ~history;
      channels ()
  in
  channels ()

let snapshot_equal = String.equal

let snapshot_hash (s : snapshot) = Hashtbl.hash s
