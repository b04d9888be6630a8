(** Deterministic wire impairment: a seeded fault plan for the channel,
    the wire-level twin of the store's {!Resets_persist.Faults}.

    The paper's channel is allowed to lose, duplicate and reorder
    packets arbitrarily — the protocol's guarantees must hold anyway.
    In simulation the {!Resets_sim.Link} provides those faults under
    the engine's determinism; on a real wire (the daemon) the kernel's
    UDP path is too well-behaved to exercise them. This module wraps a
    sender's send function with seed-deterministic loss (i.i.d. and
    Gilbert–Elliott bursts), duplication, one-frame reordering and
    multi-frame delay, so a real-wire run meets the same adversarial
    channel as a simulated one — and two runs with the same seed and
    the same offered-frame sequence meet byte-identical impairment.

    Rolls are drawn from the plan's own PRNG in a fixed per-frame
    order (GE state advance, burst drop, iid drop, dup, reorder,
    delay; drops short-circuit), so the pattern is a pure function of
    the seed. Frames held for reordering or delay re-enter the stream
    after later frames; frames still held when the stream ends are
    lost — which the protocol tolerates by design. *)

(** Gilbert–Elliott two-state burst-loss channel: in the [bad] state
    each frame drops with [bad_drop_prob]; the state advances once per
    offered frame ([p_enter_bad] from good, [p_exit_bad] from bad). *)
type ge_spec = {
  p_enter_bad : float;
  p_exit_bad : float;
  bad_drop_prob : float;
}

type spec = {
  drop_prob : float;  (** i.i.d. loss *)
  dup_prob : float;  (** frame sent twice *)
  reorder_prob : float;  (** frame held back one frame (a swap) *)
  delay_prob : float;  (** frame held back [delay_frames] frames *)
  delay_frames : int;
  ge : ge_spec option;  (** burst loss, on top of i.i.d. loss *)
}

val none : spec
val is_none : spec -> bool

val spec_to_string : spec -> string
(** ["drop=0.05,dup=0.01,reorder=0.02,delay=0.01:4,ge=0.01:0.2:0.9"];
    [""] for {!none}. Inverse of {!spec_of_string}. *)

val spec_of_string : string -> (spec, string) result
(** Parse the CLI form. Empty string is {!none}; unknown keys and
    out-of-range probabilities are rejected. *)

type t

val create : spec:spec -> prng:Resets_util.Prng.t -> t
(** A plan instance owns its PRNG: give each stream its own (the
    daemon keys one per SA index) so the pattern each stream sees is
    independent of how streams interleave. Not thread-safe. *)

val offer : t -> Packet.t -> emit:(Packet.t -> unit) -> unit
(** Push one frame through the impairment: [emit] is called zero or
    more times (drop / dup / in order decided by held frames). The
    building block {!wrap} is made of; exposed for deterministic
    stream tests. *)

val wrap : t -> (Packet.t -> unit) -> Packet.t -> unit
(** [wrap t send] is the impaired send path: each packet rolls the
    plan and reaches [send] zero, one or two times, now or after later
    packets. An injected drop is loss {e on} the medium, so the caller
    sees nothing different from a lossy wire. Impair the sender's send
    function; a receiver is fed whatever arrives. *)

(** {2 Counters} *)

val offered : t -> int
val dropped : t -> int

val duplicated : t -> int
val reordered : t -> int
val delayed : t -> int

val held : t -> int
(** Frames currently held back (lost if the stream ends first). *)
