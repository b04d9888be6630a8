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
  mutable out : Bytes.t;  (* snapshots are encoded here, then copied out *)
  mutable len : int;  (* bytes of [out] written so far *)
  (* The snapshot that restore last decoded, as values: the explorer
     restores each state once per successor, and all but the first
     rebuild the state from this copy instead of decoding again. *)
  mutable kept : string;  (* "" until the first restore *)
  mutable kept_vars : Value.t array array;  (* per process, its variables *)
  mutable kept_channels : (int * Message.t list * Message.t list) list;
      (* each channel the snapshot holds: id, queue, history *)
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
  {
    net;
    procs;
    adversary;
    lossy;
    out = Bytes.create 128;
    len = 0;
    kept = "";
    kept_vars = [||];
    kept_channels = [];
  }

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

(* Snapshots are encoded into [t.out], which only grows, so taking
   one allocates nothing but the string it returns. Each field first
   makes room for its longest encoding (a varint of an OCaml int takes
   at most 9 bytes), then writes without bounds checks. *)
let grow t n =
  let out = Bytes.create (2 * (t.len + n)) in
  Bytes.blit t.out 0 out 0 t.len;
  t.out <- out

let[@inline] room t n = if t.len + n > Bytes.length t.out then grow t n

(* [n] as a varint at [pos] of [b]; returns the position after it *)
let rec write_uint b pos n =
  if n >= 0 && n < 0x80 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr n);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (n land 0x7f lor 0x80));
    write_uint b (pos + 1) (n lsr 7)
  end

let zigzag i = (i lsl 1) lxor (i asr (Sys.int_size - 1))

let rec write_ints b pos = function
  | [] -> pos
  | i :: rest -> write_ints b (write_uint b pos (zigzag i)) rest

let put_byte t c =
  room t 1;
  Bytes.unsafe_set t.out t.len c;
  t.len <- t.len + 1

let put_uint t n =
  room t 9;
  t.len <- write_uint t.out t.len n

let put_value t = function
  | Value.Int i ->
    room t 10;
    Bytes.unsafe_set t.out t.len '\000';
    t.len <- write_uint t.out (t.len + 1) (zigzag i)
  | Value.Bool b -> put_byte t (if b then '\002' else '\001')
  | Value.Bool_array a ->
    let n = Array.length a in
    room t (10 + n);
    Bytes.unsafe_set t.out t.len '\003';
    let pos = write_uint t.out (t.len + 1) n in
    for k = 0 to n - 1 do
      Bytes.unsafe_set t.out (pos + k) (if a.(k) then '\001' else '\000')
    done;
    t.len <- pos + n

let rec put_each_message t = function
  | [] -> ()
  | (m : Message.t) :: rest ->
    let tag = String.length m.tag and args = List.length m.args in
    room t (9 + tag + (9 * (1 + args)));
    let pos = write_uint t.out t.len tag in
    Bytes.blit_string m.tag 0 t.out pos tag;
    let pos = write_uint t.out (pos + tag) args in
    t.len <- write_ints t.out pos m.args;
    put_each_message t rest

let put_messages t msgs =
  put_uint t (List.length msgs);
  put_each_message t msgs

let snapshot t =
  t.len <- 0;
  for i = 0 to Array.length t.procs - 1 do
    let st = snd t.procs.(i) in
    let slots = State.slots st in
    for k = 0 to State.length st - 1 do
      put_value t slots.(k)
    done
  done;
  Network.iter_channels t.net (fun id ~queue ~history ->
      match (queue, history) with
      | [], [] -> ()
      | _ ->
        put_uint t (id + 1);
        put_messages t queue;
        put_messages t history);
  put_byte t '\000';
  Bytes.sub_string t.out 0 t.len

type cursor = {
  s : string;
  mutable pos : int;
}

let byte c =
  let b = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  b

let rec uint_from c acc shift =
  let b = byte c in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc else uint_from c acc (shift + 7)

let uint c = uint_from c 0 0

let int c =
  let n = uint c in
  (n lsr 1) lxor -(n land 1)

let value c =
  match byte c with
  | 0 -> Value.Int (int c)
  | 1 -> Value.Bool false
  | 2 -> Value.Bool true
  | 3 ->
    let a = Array.make (uint c) false in
    for k = 0 to Array.length a - 1 do
      a.(k) <- byte c = 1
    done;
    Value.Bool_array a
  | _ -> invalid_arg "System.restore: malformed snapshot"

let rec ints c n =
  if n = 0 then []
  else
    let i = int c in
    i :: ints c (n - 1)

let rec message_list c n =
  if n = 0 then []
  else
    let len = uint c in
    let tag = String.sub c.s c.pos len in
    c.pos <- c.pos + len;
    let m = { Message.tag; args = ints c (uint c) } in
    m :: message_list c (n - 1)

let messages c = message_list c (uint c)

let rec channels c acc =
  match uint c with
  | 0 -> acc
  | id ->
    let queue = messages c in
    let history = messages c in
    channels c ((id - 1, queue, history) :: acc)

let decode t snap =
  t.kept <- "";
  if Array.length t.kept_vars = 0 then
    t.kept_vars <- Array.map (fun (_, st) -> Array.make (State.length st) (Value.Int 0)) t.procs;
  let c = { s = snap; pos = 0 } in
  Array.iter
    (fun vars ->
      for k = 0 to Array.length vars - 1 do
        vars.(k) <- value c
      done)
    t.kept_vars;
  t.kept_channels <- channels c [];
  t.kept <- snap

let rec set_channels net = function
  | [] -> ()
  | (id, queue, history) :: rest ->
    Network.set_channel net id ~queue ~history;
    set_channels net rest

(* Ints, bools and message lists are immutable, so the live state may
   share them with the kept copy; each bool array is copied. A slot
   that still holds the kept value is left alone, which skips the
   write barrier for every variable the last step did not assign. *)
let restore t snap =
  if snap != t.kept then decode t snap;
  for i = 0 to Array.length t.procs - 1 do
    let slots = State.slots (snd t.procs.(i)) and vars = t.kept_vars.(i) in
    for k = 0 to Array.length vars - 1 do
      match vars.(k) with
      | Value.Bool_array a -> slots.(k) <- Value.Bool_array (Array.copy a)
      | (Value.Int _ | Value.Bool _) as v -> if slots.(k) != v then slots.(k) <- v
    done
  done;
  Network.clear t.net;
  set_channels t.net t.kept_channels

let snapshot_equal = String.equal

let snapshot_hash (s : snapshot) = Hashtbl.hash s
