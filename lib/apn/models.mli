(** The paper's processes, written in the Abstract Protocol Notation
    ({!Ast}) and compiled by {!Interp}.

    Two protocol versions:

    - {!original_p} / {!original_q}: Section 2's anti-replay window
      protocol, whose sequence state is volatile — a reset action sets
      [s := 1] (at p) or [r := 0, wdw := all true] (at q), reproducing
      the Section 3 failures;
    - {!augmented_p} / {!augmented_q}: Section 4's protocol with SAVE
      and FETCH. Background SAVE is modeled as a pending write that a
      separate [save_done] action makes durable — so a reset can strike
      {e between} [save.begin] and [save.done], the exact race Figures
      1 and 2 analyse. The blocking wakeup SAVE is split into
      [wakeup_begin]/[wakeup_done] so a second reset can strike during
      it (Section 4's second consideration).

    The builders return the process as syntax: {!Pp} prints it in the
    paper's notation (`ipsec-resets explore --print-model`). Each
    model's action list is one value, compiled once when this module is
    initialised; building a system only instantiates the compiled
    program with the bounds' values ({!Interp.instantiate}).

    q's scratch variables — the received number [s] and the loop
    indices [i] and [j] — are locals: printed with q's variables, but
    not state, so a snapshot holds only what the protocol remembers
    between actions.

    Ghost (history) variables instrument the paper's correctness
    conditions without affecting behaviour:

    - at q: [dlv] marks delivered sequence numbers and [dup] latches a
      second delivery of the same number — {e Discrimination} is
      [dup = false];
    - at p: [max_sent] tracks the largest sequence number ever sent and
      [stale_resume] latches a wakeup that resumed at or below it —
      Section 5's sender-freshness claim is [stale_resume = false];
    - at q: [stale_edge] latches a wakeup whose recovered right edge
      lies below the largest delivered number — Section 5's receiver
      claim is [stale_edge = false].

    All processes carry bounds so exploration is finite: [s_max] caps
    how many messages p may send, the reset budgets cap reset
    actions. The builders raise [Invalid_argument] when [kp], [kq] or
    [w] is below 1. *)

type bounds = {
  s_max : int;  (** largest sequence number p may send *)
  p_resets : int;  (** reset budget for p *)
  q_resets : int;  (** reset budget for q *)
}

val default_bounds : bounds

val original_p : ?bounds:bounds -> unit -> Ast.process
val original_q : ?bounds:bounds -> w:int -> unit -> Ast.process

val augmented_p : ?bounds:bounds -> ?leap:int -> kp:int -> unit -> Ast.process
(** [leap] defaults to the paper's [2 * kp]; smaller values exist so
    the explorer can demonstrate they are unsound (a reset during the
    in-flight SAVE then resumes on used numbers). *)

val augmented_q :
  ?bounds:bounds -> ?robust:bool -> ?leap:int -> kq:int -> w:int -> unit -> Ast.process
(** With [robust:false] (the default), the receiver is exactly the
    paper's process q. Exploring it reproduces the paper's receiver
    theorem {e under the paper's implicit assumption} that the right
    edge advances by small steps between SAVEs — and also exhibits a
    corner the paper's Figure 2 analysis misses: if [r] jumps by more
    than [Kq] in a single receive (because the sender leapt after its
    own reset, because earlier messages were lost, or because a
    replayed/reordered high number arrived first) and a reset strikes
    while SAVE(r) is still in flight, the fetched value can lag the
    last used edge by more than [2 Kq], and a replayed message is then
    accepted. See the model-checking tests and EXPERIMENTS.md (E11).

    With [robust:true], the receiver has one more branch after a
    receive: [r > pst + leap -> pst, lst, pend := r, r, -1]. It refuses
    to let [r] outrun durable state by more than the wakeup leap,
    completing the SAVE synchronously first (a blocking write). The
    Section 5 claims then hold for every schedule we can explore,
    including combined p/q resets, loss and replay. *)

(** {1 Invariants (Section 5, as state predicates)} *)

val discrimination_holds : System.t -> bool
(** q has never delivered the same sequence number twice. *)

val sender_freshness_holds : System.t -> bool
(** p has never resumed, after a wakeup, at a sequence number already
    used. Vacuously true for systems without an augmented p. *)

val all_section5_invariants : System.t -> bool

(** {1 Ready-made systems} *)

val original_system :
  ?bounds:bounds -> ?capacity:int -> ?adversary:bool -> ?lossy:bool -> w:int -> unit -> System.t

val augmented_system :
  ?bounds:bounds ->
  ?capacity:int ->
  ?adversary:bool ->
  ?lossy:bool ->
  ?robust:bool ->
  ?leap_p:int ->
  ?leap_q:int ->
  kp:int ->
  kq:int ->
  w:int ->
  unit ->
  System.t
