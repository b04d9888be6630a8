open Resets_util
module A = Bigarray.Array1

type verdict = Accept_new | Accept_in_window | Reject_duplicate | Reject_stale

let verdict_accepts = function
  | Accept_new | Accept_in_window -> true
  | Reject_duplicate | Reject_stale -> false

let verdict_to_string = function
  | Accept_new -> "accept-new"
  | Accept_in_window -> "accept-in-window"
  | Reject_duplicate -> "reject-duplicate"
  | Reject_stale -> "reject-stale"

let pp_verdict ppf v = Format.pp_print_string ppf (verdict_to_string v)

let equal_verdict (a : verdict) (b : verdict) = a = b

(* Sadb_flat.word_bits as a literal, so that / and mod by it compile to
   multiplies rather than divisions. *)
let word_bits = 63

let () = assert (word_bits = Sadb_flat.word_bits)

type impl = Flat_impl of Sadb_flat.t

(* The slot's geometry, fixed at creation: indices into the arena's
   data of the right-edge word and of window word 0 (stable across
   arena growth), and the ring of [nwords] words, [nbits] bits. *)
type t = {
  arena : Sadb_flat.t;
  slot : int;
  edge : int;
  words : int;
  w : int;
  nwords : int;
  nbits : int;
}

let w t = t.w
let slot t = t.slot
let right_edge t = A.get (Sadb_flat.data t.arena) t.edge

(* Ring position of [s]: s mod nbits, non-negative. *)
let ring t s =
  let i = s mod t.nbits in
  if i < 0 then i + t.nbits else i

let clear t (data : Sadb_flat.data) =
  for k = t.words to t.words + t.nwords - 1 do
    A.set data k 0
  done

(* Mark ring position [i] seen. *)
let set_bit t (data : Sadb_flat.data) i =
  let k = t.words + (i / word_bits) in
  A.set data k (A.get data k lor (1 lsl (i mod word_bits)))

(* The three-case rule for [s] against right edge [r]. *)
let classify t (data : Sadb_flat.data) r s =
  if s > r then Accept_new
  else if s <= r - t.w then Reject_stale
  else
    let i = ring t s in
    if A.get data (t.words + (i / word_bits)) land (1 lsl (i mod word_bits)) <> 0
    then Reject_duplicate
    else Accept_in_window

(* RFC 6479 slide from [r] to [s > r]: every ring word the edge enters
   is zeroed whole (the ring's extra word of slack keeps the w-window
   out of them), then [s] is marked. *)
let slide t (data : Sadb_flat.data) r s =
  let j = ring t s in
  let d = s - r in
  if d + word_bits > t.nbits then
    (* the slide laps, or nearly laps, the ring *)
    clear t data
  else begin
    let i = j - d in
    let k = ref ((if i < 0 then i + t.nbits else i) / word_bits)
    and last = j / word_bits in
    while !k <> last do
      k := if !k + 1 = t.nwords then 0 else !k + 1;
      A.set data (t.words + !k) 0
    done
  end;
  A.set data t.edge s;
  set_bit t data j

let check t s =
  let data = Sadb_flat.data t.arena in
  classify t data (A.get data t.edge) s

let admit t s =
  let data = Sadb_flat.data t.arena in
  let r = A.get data t.edge in
  match classify t data r s with
  | Accept_new ->
    slide t data r s;
    Accept_new
  | Accept_in_window ->
    set_bit t data (ring t s);
    Accept_in_window
  | (Reject_duplicate | Reject_stale) as v -> v

let seen t s = not (verdict_accepts (check t s))

(* Edge [r] with the whole window marked seen: the paper's initial
   state, and its wakeup (every number up to the edge counts as
   received). *)
let set_edge t r =
  let data = Sadb_flat.data t.arena in
  clear t data;
  A.set data t.edge r;
  for s = r - t.w + 1 to r do
    set_bit t data (ring t s)
  done

let volatile_reset t =
  Sadb_flat.bump_epoch t.arena t.slot;
  set_edge t Seqno.zero

let resume_at t s =
  Sadb_flat.bump_epoch t.arena t.slot;
  set_edge t s

let create (Flat_impl arena) ~w =
  if w <= 0 then invalid_arg "Replay_window.create: w must be positive";
  if w <> Sadb_flat.w arena then
    invalid_arg
      "Replay_window.create: Flat_impl arena was provisioned for a different \
       window width";
  let slot = Sadb_flat.alloc arena in
  let base = Sadb_flat.base arena slot in
  let nwords = Sadb_flat.wwords arena in
  let t =
    {
      arena;
      slot;
      edge = base + Sadb_flat.right_edge_word;
      words = base + Sadb_flat.header_words;
      w;
      nwords;
      nbits = nwords * word_bits;
    }
  in
  set_edge t Seqno.zero;
  t

let create_private ~w = create (Flat_impl (Sadb_flat.create ~capacity:1 ~w ())) ~w
