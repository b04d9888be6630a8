(* Struct-of-arrays arena for per-SA hot state. See the .mli for the
   slot layout and the cache/GC rationale; DESIGN.md §2e has the worked
   byte-offset diagram. *)

type data = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let word_bits = 63

let header_words = 5

(* Header word offsets within a slot. *)
let off_send_seq = 0
let off_packets_sent = 1
let off_packets_received = 2
let right_edge_word = 3
let off_epoch = 4

type t = {
  w : int;
  wwords : int;
  stride : int;
  mutable data : data;
  mutable capacity : int; (* slots the backing store can hold *)
  mutable used : int;
}

let make_data len =
  let data = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  Bigarray.Array1.fill data 0;
  data

let create ?(capacity = 16) ~w () =
  if w <= 0 then invalid_arg "Sadb_flat.create: w must be positive";
  let capacity = max 1 capacity in
  (* RFC 6479-style over-provisioning: one word of slack beyond the
     window so slides clear whole words (see Replay_window). *)
  let wwords = ((w + word_bits - 1) / word_bits) + 1 in
  (* Round the stride up to a multiple of 8 words so slots start on
     64-byte (cache-line) boundaries. With the default w = 64 the raw
     size is 5 + 3 = 8 words: exactly one line per SA. *)
  let stride = (header_words + wwords + 7) land lnot 7 in
  { w; wwords; stride; data = make_data (capacity * stride); capacity; used = 0 }

let w t = t.w
let wwords t = t.wwords
let stride t = t.stride
let capacity t = t.capacity
let used t = t.used
let data t = t.data

let grow t =
  let capacity = 2 * t.capacity in
  let data = make_data (capacity * t.stride) in
  Bigarray.Array1.blit t.data (Bigarray.Array1.sub data 0 (t.capacity * t.stride));
  t.data <- data;
  t.capacity <- capacity

let alloc t =
  if t.used = t.capacity then grow t;
  let slot = t.used in
  t.used <- slot + 1;
  slot

(* Accessors. [slot * stride + off] never escapes the backing store for
   a slot returned by [alloc]; Array1.get still bounds-checks, which is
   cheap enough for the simulator's hot path. *)

let base t slot = slot * t.stride

let send_seq t slot = Bigarray.Array1.get t.data (base t slot + off_send_seq)

let set_send_seq t slot v =
  Bigarray.Array1.set t.data (base t slot + off_send_seq) v

let packets_sent t slot =
  Bigarray.Array1.get t.data (base t slot + off_packets_sent)

let set_packets_sent t slot v =
  Bigarray.Array1.set t.data (base t slot + off_packets_sent) v

let packets_received t slot =
  Bigarray.Array1.get t.data (base t slot + off_packets_received)

let set_packets_received t slot v =
  Bigarray.Array1.set t.data (base t slot + off_packets_received) v

let epoch t slot = Bigarray.Array1.get t.data (base t slot + off_epoch)

let bump_epoch t slot =
  let i = base t slot + off_epoch in
  Bigarray.Array1.set t.data i (Bigarray.Array1.get t.data i + 1)
