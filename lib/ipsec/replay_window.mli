(** Anti-replay window: the receiver-side data structure of Section 2.

    The window tracks, for the receiver [q], which of the [w] sequence
    numbers ending at the right edge [r] have been seen. Checking an
    incoming sequence number [s] follows the three-case rule of the
    paper's Section 2:

    - [s <= r - w]: {e stale} — [q] cannot tell whether it has seen the
      message, so it conservatively rejects;
    - [r - w < s <= r]: in window — reject iff already seen;
    - [s > r]: fresh beyond the edge — accept and slide the window so
      [s] becomes the new right edge.

    There is one implementation: the RFC 6479-style blocked bitmap (the
    WireGuard scheme) over a slot of a {!Sadb_flat} arena. The paper's
    array [wdw\[1..w\]] becomes a ring of [ceil(w / 63) + 1] 63-bit
    words; the extra word is slack, so a slide zeroes whole words
    instead of shifting slots. Every window lives in an arena: a
    shard's windows share one, so a million-SA shard keeps them all in
    one unboxed, cache-linear backing store, and a window with no
    shared arena gets a private one-slot arena. The paper's
    boolean-array process itself is the executable specification in
    the test suite, and a qcheck property checks this window
    observationally equivalent to it. *)

type verdict =
  | Accept_new  (** beyond the right edge; window slid *)
  | Accept_in_window  (** inside the window, first sighting *)
  | Reject_duplicate  (** inside the window, already seen *)
  | Reject_stale  (** at or below the left edge *)

val verdict_accepts : verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit
val verdict_to_string : verdict -> string
val equal_verdict : verdict -> verdict -> bool

(** The arena a window's state lives in: {!create} claims the arena's
    next free slot, so every window (and, through {!Sa.create}, every
    SA) built from the same [Flat_impl a] value shares [a]'s backing
    store. The arena's provisioned width must equal the [w] passed to
    {!create}. *)
type impl = Flat_impl of Sadb_flat.t

type t

val create : impl -> w:int -> t
(** Fresh window in a new slot of the arena: right edge 0, every slot
    marked seen (the paper's declared initial values).
    @raise Invalid_argument if [w <= 0] or the arena was provisioned
    for a different width. *)

val create_private : w:int -> t
(** A window in its own one-slot arena.
    @raise Invalid_argument if [w <= 0]. *)

val slot : t -> int
(** The arena slot holding the window. {!Sa.create} keeps the SA's
    sequence counter in the same slot. *)

val w : t -> int
val right_edge : t -> Resets_util.Seqno.t

val check : t -> Resets_util.Seqno.t -> verdict
(** Classify without mutating. *)

val admit : t -> Resets_util.Seqno.t -> verdict
(** Classify and, on acceptance, record the sequence number (sliding
    the window for [Accept_new]). *)

val volatile_reset : t -> unit
(** What a host reset does to RAM: right edge back to 0, history
    forgotten. (This is the {e problem}; SAVE/FETCH is the cure.) *)

val resume_at : t -> Resets_util.Seqno.t -> unit
(** Wakeup with a recovered right edge: every number up to it is
    assumed already received (the paper's third action of process q
    sets the whole array to true). *)

val seen : t -> Resets_util.Seqno.t -> bool
(** Whether an in-window number is marked received; stale numbers
    report [true], beyond-edge numbers [false]. *)
