(** Flat per-SA hot state: a struct-of-arrays arena.

    At 10^5–10^6 SAs per shard, giving every SA its own heap-allocated
    counters and window words scatters the simulation's per-packet
    working set across the heap and makes the GC trace a million small
    objects. This arena packs the {e volatile} state of many SAs — the
    paper's sequence counter, the anti-replay right edge and window
    bits, plus packet counters and a reset-epoch diagnostic — into one
    unboxed [Bigarray] of native ints, so a shard's hot state is
    cache-linear, GC-invisible, and indexed by a flat slot number.

    One arena serves one shard (all its SAs share a window width [w])
    or, with [~capacity:1], a single SA; {!alloc} hands out slots append-only and the backing store doubles
    on demand, so re-established SAs simply take fresh slots — slots
    are never reclaimed, which is the right trade for bounded-lifetime
    simulation runs.

    {2 Slot layout}

    Every slot is [stride] words, with the stride rounded up to a
    multiple of 8 words so each slot starts on a 64-byte cache-line
    boundary. Word offsets within a slot ([×8] for byte offsets):

    {v
    word 0   send_seq          sender: next sequence number to use
    word 1   packets_sent      sender: lifetime counter
    word 2   packets_received  receiver: lifetime counter
    word 3   right_edge        receiver: window right edge r
    word 4   epoch             resets/resumes seen by this slot
    word 5+  window words      RFC 6479-style seen-bits, 63 per word
    v}

    With the default [w = 64] a slot needs [ceil(64/63) + 1 = 3] window
    words (the [+1] is the block scheme's word of slack), so the raw
    size is [5 + 3 = 8] words — exactly one cache line per SA.

    The window words hold an RFC 6479-style blocked bitmap; the
    sliding/checking logic lives in {!Replay_window}, which reads and
    writes the right-edge and window words directly in {!data} at
    offsets from {!base}. This module is pure storage: it knows byte
    layout, not protocol. See DESIGN.md §2e for the worked byte-offset
    diagram and the cache/GC argument. *)

type t

val word_bits : int
(** Usable bits per window word (63: the native-int payload). *)

val header_words : int
(** Number of fixed words before the window words in every slot (5):
    the offset of window word 0 from {!base}. *)

val right_edge_word : int
(** Offset of the right-edge word from {!base} (3). *)

val create : ?capacity:int -> w:int -> unit -> t
(** [create ~w ()] is an empty arena whose slots carry a width-[w]
    anti-replay window each. [capacity] (default 16) pre-sizes the
    backing store in slots; it grows by doubling, so the value is a
    hint, not a limit.
    @raise Invalid_argument if [w <= 0]. *)

val w : t -> int
(** The window width every slot was provisioned for. *)

val wwords : t -> int
(** Window words per slot: [ceil (w / word_bits) + 1]. *)

val stride : t -> int
(** Words per slot ([header_words + wwords], rounded up to a multiple
    of 8 so slots are cache-line aligned). *)

val capacity : t -> int
(** Slots the current backing store can hold. *)

val used : t -> int
(** Slots handed out so far. *)

val alloc : t -> int
(** Claim the next free slot (its words are all zero) and return its
    index. Append-only: slots are never freed. Doubles the backing
    store when full — existing slot contents are preserved and slot
    indices remain valid across growth. *)

(** {2 Raw storage}

    For the window's hot path, which reads and writes its words in
    place instead of through one accessor call per word. *)

type data = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val data : t -> data
(** The current backing store. {!alloc} replaces it when the arena
    grows, so read it afresh after any [alloc]; offsets from {!base}
    stay valid across growth. *)

val base : t -> int -> int
(** [base t slot] is the index in {!data} of [slot]'s word 0
    ([slot * stride t]). *)

(** {2 Header-word accessors} *)

val send_seq : t -> int -> int
val set_send_seq : t -> int -> int -> unit
val packets_sent : t -> int -> int
val set_packets_sent : t -> int -> int -> unit
val packets_received : t -> int -> int
val set_packets_received : t -> int -> int -> unit

val epoch : t -> int -> int
(** How many volatile resets / recovery resumes this slot has seen — a
    cheap diagnostic distinguishing a fresh slot from one that lived
    through a crash. *)

val bump_epoch : t -> int -> unit
