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

(* An action with what running it needs at hand. *)
type act = {
  step : step;  (* its Proc_action, built once *)
  action : Process.action;
  ctx : Process.context;  (* its process's, built once *)
  mutable inbox : Network.channel option;
      (* a receive's channel, looked up the first time its guard holds:
         the lookup creates the channel, so channels are created in the
         same order as by a lookup per step *)
}

type proc = {
  process : Process.t;
  state : State.t;
  mutable acts : act array;
      (* action order; built when the process first lists or runs a
         step, so that building a system stays as cheap as copying its
         initial states *)
}

type t = {
  net : Network.t;
  procs : proc array;  (* declaration order, as snapshots pack them *)
  adversary : bool;
  lossy : bool;
  mutable out : Bytes.t;  (* snapshots are encoded here, then copied out *)
  mutable len : int;  (* bytes of [out] written so far *)
  (* The snapshot that restore last decoded, as values: the explorer
     restores each state once per successor, and all but the first
     rebuild the state from this copy instead of decoding again. *)
  mutable kept : string;  (* "" until the first restore *)
  mutable kept_vars : Value.t array array;  (* per process, its variables *)
  mutable kept_ends : int array;  (* per process, where its variables end in [kept] *)
  mutable kept_queues : Message.t list array;  (* by channel id *)
  mutable kept_histories : Message.t list array;
  mutable kept_spans : int array;
      (* by channel id, at 3 id, 3 id + 1 and 3 id + 2: where the
         channel's bytes, its history's bytes and the channel's end are
         in [kept]; all 0 when [kept] has no such channel *)
  mutable tags : string list;  (* every message tag decoded so far, one string each *)
}

let create ?(capacity = 1024) ?(adversary = false) ?(lossy = false) processes =
  let procs =
    Array.of_list
      (List.map
         (fun (p : Process.t) -> { process = p; state = State.copy p.init; acts = [||] })
         processes)
  in
  Array.iteri
    (fun i p ->
      for j = 0 to i - 1 do
        if String.equal procs.(j).process.name p.process.name then
          invalid_arg ("System.create: duplicate process " ^ p.process.name)
      done)
    procs;
  {
    net = Network.create ~capacity ~record_history:adversary ();
    procs;
    adversary;
    lossy;
    out = Bytes.create 128;
    len = 0;
    kept = "";
    kept_vars = [||];
    kept_ends = [||];
    kept_queues = [||];
    kept_histories = [||];
    kept_spans = [||];
    tags = [];
  }

let acts t p =
  if Array.length p.acts = 0 then begin
    let net = t.net and name = p.process.name in
    let ctx =
      {
        Process.self = name;
        send =
          (fun ~dst msg ->
            (* A send into a full channel loses the message: the
               paper's channels may lose messages, and this keeps
               exploration bounded without disabling the sender's
               action. *)
            ignore (Network.offer net (Network.channel net ~src:name ~dst) msg));
      }
    in
    let act index action =
      let label = Process.action_label action in
      { step = Proc_action { proc = name; index; label }; action; ctx; inbox = None }
    in
    p.acts <- Array.of_list (List.mapi act p.process.actions)
  end;
  p.acts

let rec find_from t name i =
  if i = Array.length t.procs then raise Not_found
  else
    let p = t.procs.(i) in
    if p.process.name == name || String.equal p.process.name name then p
    else find_from t name (i + 1)

let find t name = find_from t name 0

let state_of t name = (find t name).state

let network t = t.net

let inbox t p a from_ =
  match a.inbox with
  | Some c -> c
  | None ->
    let c = Network.channel t.net ~src:from_ ~dst:p.process.name in
    a.inbox <- Some c;
    c

let enabled t p a =
  match a.action with
  | Process.Internal { guard; _ } -> guard p.state
  | Process.Receive { from_; guard; _ } -> guard p.state && (inbox t p a from_).queue != []

(* [Replay]s of [history] (newest first) consed onto [steps]: oldest
   first in front of what was there *)
let rec replays (c : Network.channel) steps = function
  | [] -> steps
  | msg :: older -> replays c (Replay { src = c.src; dst = c.dst; msg } :: steps) older

(* Built back to front, so that each step is consed once in its
   place. The channel steps come first: a receive guard may create a
   channel, and a new channel is empty, so it has none. *)
let enabled_steps t =
  let steps = ref [] in
  for k = Network.count t.net - 1 downto 0 do
    let c = Network.nth_sorted t.net k in
    if t.lossy && c.queue != [] then steps := Drop { src = c.src; dst = c.dst } :: !steps;
    if t.adversary then steps := replays c !steps c.history
  done;
  for i = Array.length t.procs - 1 downto 0 do
    let p = t.procs.(i) in
    let acts = acts t p in
    for j = Array.length acts - 1 downto 0 do
      let a = acts.(j) in
      if enabled t p a then steps := a.step :: !steps
    done
  done;
  !steps

let disabled step = invalid_arg ("System.execute: disabled step " ^ step_label step)

let execute t step =
  match step with
  | Proc_action { proc; index; _ } -> (
    let p = find t proc in
    let acts = acts t p in
    if index < 0 || index >= Array.length acts then disabled step;
    let a = acts.(index) in
    match a.action with
    | Process.Internal { guard; effect; _ } ->
      if not (guard p.state) then disabled step;
      effect a.ctx p.state
    | Process.Receive { from_; guard; effect; _ } ->
      if not (guard p.state) then disabled step;
      let c = inbox t p a from_ in
      if c.queue == [] then disabled step;
      effect a.ctx p.state (Network.pop c))
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

(* Snapshots are encoded into [t.out], which only grows, so encoding
   allocates nothing. Each field first makes room for its longest
   encoding (a varint of an OCaml int takes at most 9 bytes), then
   writes without bounds checks. *)
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

(* the kept snapshot's bytes from [from] to [stop] *)
let put_kept t from stop =
  let n = stop - from in
  room t n;
  Bytes.blit_string t.kept from t.out t.len n;
  t.len <- t.len + n

let rec same_bools (a : bool array) b k =
  k = Array.length a || (a.(k) = b.(k) && same_bools a b (k + 1))

let same_value v w =
  v == w
  ||
  match (v, w) with
  | Value.Int a, Value.Int b -> a = b
  | Value.Bool a, Value.Bool b -> a = b
  | Value.Bool_array a, Value.Bool_array b -> Array.length a = Array.length b && same_bools a b 0
  | (Value.Int _ | Value.Bool _ | Value.Bool_array _), _ -> false

let rec same_vars slots vars k =
  k = Array.length vars || (same_value slots.(k) vars.(k) && same_vars slots vars (k + 1))

(* A process whose variables, or a channel whose queue and history,
   still equal the kept copy's (as after a restore and a step of some
   other process) is copied from the kept snapshot's bytes instead of
   being encoded: the encoding is canonical, so the bytes are the
   same. *)
let encode t =
  t.len <- 0;
  let kept = t.kept != "" in
  for i = 0 to Array.length t.procs - 1 do
    let slots = State.slots t.procs.(i).state in
    if kept && same_vars slots t.kept_vars.(i) 0 then
      put_kept t (if i = 0 then 0 else t.kept_ends.(i - 1)) t.kept_ends.(i)
    else
      for k = 0 to State.length t.procs.(i).state - 1 do
        put_value t slots.(k)
      done
  done;
  for id = 0 to Network.count t.net - 1 do
    let c = Network.nth t.net id and span = 3 * id in
    (* whether the kept snapshot holds this channel *)
    let kept = kept && id < Array.length t.kept_queues && t.kept_spans.(span + 2) > 0 in
    if kept && c.queue == t.kept_queues.(id) && c.history == t.kept_histories.(id) then
      put_kept t t.kept_spans.(span) t.kept_spans.(span + 2)
    else if c.queue != [] || c.history != [] then begin
      put_uint t (id + 1);
      put_messages t c.queue;
      if kept && c.history == t.kept_histories.(id) then
        put_kept t t.kept_spans.(span + 1) t.kept_spans.(span + 2)
      else put_messages t c.history
    end
  done;
  put_byte t '\000'

let encoded t = Bytes.sub_string t.out 0 t.len

let snapshot t =
  encode t;
  encoded t

(* The hash of [len] bytes of [b]: fasthash's mix over 8-byte words,
   then over the up to 7 bytes left. An OCaml int holds 63 bits of a
   word; its top bit is added after the mix. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let[@inline] mix h =
  let h = h lxor (h lsr 23) in
  let h = h * 0x2127599bf4325c37 in
  h lxor (h lsr 47)

let m = 0x080355f21e6d1965

let hash b len =
  let h = ref (len * m) and i = ref 0 in
  while !i + 8 <= len do
    let w = get64u b !i in
    let v = mix (Int64.to_int w) + Int64.to_int (Int64.shift_right_logical w 63) in
    h := (!h lxor v) * m;
    i := !i + 8
  done;
  if !i < len then begin
    let v = ref 0 in
    for j = len - 1 downto !i do
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get b j)
    done;
    h := (!h lxor mix !v) * m
  end;
  mix !h land max_int

let encoded_hash t = hash t.out t.len

let snapshot_hash (s : snapshot) = hash (Bytes.unsafe_of_string s) (String.length s)

let rec same_tail a i b j n =
  n = 0 || (Bytes.unsafe_get a i = Bytes.unsafe_get b j && same_tail a (i + 1) b (j + 1) (n - 1))

(* whether [n] bytes of [a] from [i] equal those of [b] from [j] *)
let rec same_bytes a i b j n =
  if n >= 8 then (get64u a i : int64) = get64u b j && same_bytes a (i + 8) b (j + 8) (n - 8)
  else same_tail a i b j n

let encoded_equal t (s : snapshot) =
  String.length s = t.len && same_bytes (Bytes.unsafe_of_string s) 0 t.out 0 t.len

let snapshot_equal = String.equal

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

let malformed () = invalid_arg "System.restore: malformed snapshot"

(* The value at the cursor; a bool array is decoded into [old]'s array
   when it has the length, since the kept copy's arrays are the
   system's own *)
let value c old =
  match byte c with
  | 0 -> Value.of_int (int c)
  | 1 -> Value.Bool false
  | 2 -> Value.Bool true
  | 3 ->
    let n = uint c in
    let v, a =
      match old with
      | Value.Bool_array a when Array.length a = n -> (old, a)
      | Value.Int _ | Value.Bool _ | Value.Bool_array _ ->
        let a = Array.make n false in
        (Value.Bool_array a, a)
    in
    for k = 0 to n - 1 do
      a.(k) <- byte c = 1
    done;
    v
  | _ -> malformed ()

let rec ints c n =
  if n = 0 then []
  else
    let i = int c in
    i :: ints c (n - 1)

let rec known c len = function
  | [] -> raise_notrace Not_found
  | tag :: rest ->
    if
      String.length tag = len
      && same_tail (Bytes.unsafe_of_string tag) 0 (Bytes.unsafe_of_string c.s) c.pos len
    then tag
    else known c len rest

(* The tag of [len] bytes at the cursor, as the string decoded before
   when there was one *)
let tag t c len =
  if c.pos + len > String.length c.s then malformed ();
  let tag =
    match known c len t.tags with
    | tag -> tag
    | exception Not_found ->
      let tag = String.sub c.s c.pos len in
      t.tags <- tag :: t.tags;
      tag
  in
  c.pos <- c.pos + len;
  tag

let rec message_list t c n =
  if n = 0 then []
  else
    let tag = tag t c (uint c) in
    let m = { Message.tag; args = ints c (uint c) } in
    m :: message_list t c (n - 1)

let messages t c = message_list t c (uint c)

(* Whether the cursor's next [n] bytes equal [old]'s from [pos]; then
   they are skipped. The encoding is self-delimiting, so those bytes
   decode to what [old]'s did. *)
let skip_same c old pos n =
  n > 0
  && c.pos + n <= String.length c.s
  && same_bytes (Bytes.unsafe_of_string c.s) c.pos (Bytes.unsafe_of_string old) pos n
  && begin
       c.pos <- c.pos + n;
       true
     end

let forget t id =
  t.kept_queues.(id) <- [];
  t.kept_histories.(id) <- [];
  Array.fill t.kept_spans (3 * id) 3 0

(* The channels from the cursor on, in id order; [next] is the first
   id not yet settled. *)
let rec channels t c old next =
  let at = c.pos in
  match uint c with
  | 0 ->
    for id = next to Array.length t.kept_queues - 1 do
      forget t id
    done
  | id ->
    let id = id - 1 in
    if id < next || id >= Array.length t.kept_queues then malformed ();
    for k = next to id - 1 do
      forget t k
    done;
    let span = 3 * id in
    let from = t.kept_spans.(span) and history = t.kept_spans.(span + 1) in
    c.pos <- at;
    let history =
      if skip_same c old from (t.kept_spans.(span + 2) - from) then at + (history - from)
      else begin
        ignore (uint c);
        t.kept_queues.(id) <- messages t c;
        let history = c.pos in
        t.kept_histories.(id) <- messages t c;
        history
      end
    in
    t.kept_spans.(span) <- at;
    t.kept_spans.(span + 1) <- history;
    t.kept_spans.(span + 2) <- c.pos;
    channels t c old (id + 1)

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Decoding overwrites the kept copy. A process or channel whose bytes
   equal those of the copy's snapshot keeps its values: consecutive
   states of a search mostly differ in one process and one channel. *)
let decode t snap =
  let old = t.kept in
  t.kept <- "";
  if Array.length t.kept_vars = 0 then begin
    t.kept_vars <-
      Array.map (fun p -> Array.make (State.length p.state) (Value.Int 0)) t.procs;
    t.kept_ends <- Array.make (Array.length t.procs) 0
  end;
  let c = { s = snap; pos = 0 } in
  let start = ref 0 in
  (* [start] and [stop] are offsets in [old]; [kept_ends] becomes the
     new snapshot's as it goes *)
  for i = 0 to Array.length t.kept_vars - 1 do
    let stop = t.kept_ends.(i) in
    if not (old != "" && skip_same c old !start (stop - !start)) then begin
      let vars = t.kept_vars.(i) in
      for k = 0 to Array.length vars - 1 do
        vars.(k) <- value c vars.(k)
      done
    end;
    start := stop;
    t.kept_ends.(i) <- c.pos
  done;
  (* a snapshot names only channels that existed when it was taken *)
  let n = Network.count t.net in
  if Array.length t.kept_queues < n then begin
    t.kept_queues <- extend t.kept_queues n [];
    t.kept_histories <- extend t.kept_histories n [];
    t.kept_spans <- extend t.kept_spans (3 * n) 0
  end;
  if old == "" then Array.fill t.kept_spans 0 (Array.length t.kept_spans) 0;
  channels t c old 0;
  t.kept <- snap

(* Every live value is overwritten from the kept copy in place. Ints,
   bools and message lists are immutable, so the live state shares
   them with the copy, and a slot or channel that still holds the
   kept value is not written at all. A bool array is copied element
   by element into the live array; only a live array of another
   length, or one that is not the state's own, is replaced by a fresh
   copy. *)
let restore t snap =
  if snap != t.kept then decode t snap;
  for i = 0 to Array.length t.procs - 1 do
    let slots = State.slots t.procs.(i).state and vars = t.kept_vars.(i) in
    for k = 0 to Array.length vars - 1 do
      match vars.(k) with
      | Value.Bool_array a -> (
        match slots.(k) with
        | Value.Bool_array live when live != a && Array.length live = Array.length a ->
          for j = 0 to Array.length a - 1 do
            Array.unsafe_set live j (Array.unsafe_get a j)
          done
        | Value.Int _ | Value.Bool _ | Value.Bool_array _ ->
          slots.(k) <- Value.Bool_array (Array.copy a))
      | (Value.Int _ | Value.Bool _) as v -> if slots.(k) != v then slots.(k) <- v
    done
  done;
  let kept = Array.length t.kept_queues in
  for id = 0 to Network.count t.net - 1 do
    let c = Network.nth t.net id in
    if id < kept then
      Network.set c ~queue:t.kept_queues.(id) ~history:t.kept_histories.(id)
    else Network.set c ~queue:[] ~history:[]
  done
