(** Bounded exhaustive state-space exploration.

    Breadth-first search over the system's reachable global states
    (process states + channel queues + adversary history), checking an
    invariant at every state. Used to machine-check, on small bounds,
    the paper's Section 5 claims: the original protocol violates
    Discrimination under resets + replay, the SAVE/FETCH protocol does
    not.

    The visited set is exact: states are told apart by their whole
    snapshot ({!System.snapshot}), never by a hash alone. Each state
    gets an id in discovery order, which is also the BFS order, so the
    frontier is the ids not yet expanded. An id holds the state's
    snapshot and one int packing its parent's id with the index of the
    step in the parent's {!System.enabled_steps}. A successor is
    encoded into the system's buffer and looked up there
    ({!System.encoded_hash}, {!System.encoded_equal}); a snapshot
    string is copied out only for a state not seen before. Step labels
    are formatted only for a counterexample's trace. *)

type outcome =
  | Exhausted of { states : int }
      (** every reachable state within the system's own bounds was
          visited and the invariant held everywhere *)
  | Limit_reached of { states : int }
      (** invariant held on everything visited before [max_states] *)
  | Violation of { states : int; trace : string list }
      (** a reachable state violates the invariant; [trace] is the
          step-label path from the initial state *)

val pp_outcome : Format.formatter -> outcome -> unit

val explore :
  ?max_states:int ->
  invariant:(System.t -> bool) ->
  System.t ->
  outcome
(** [explore ~invariant system] starts from the system's current state
    (which is restored before returning). Default [max_states] is
    200_000. *)

val replay : System.t -> string list -> (unit, string) result
(** [replay system trace] executes a counterexample trace (step labels
    as produced by {!outcome}) from the system's current state, leaving
    the system in the trace's final state for inspection. Returns
    [Error message] if some label has no enabled step at its point in
    the trace. *)
