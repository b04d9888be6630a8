(** APN processes: named variables plus guarded actions.

    The paper's processes are written as {!Ast} values and compiled by
    {!Interp}; {!make} builds one from OCaml closures instead.

    Semantics follow the paper's introduction: an action executes only
    when its guard is true; actions (across all processes) execute one
    at a time; an action whose guard is continuously true is eventually
    executed (weak fairness, provided by the schedulers in
    {!System}). *)

type context = {
  self : string;
  send : dst:string -> Message.t -> unit;
}
(** What an action body may do besides updating its own state. *)

type action =
  | Internal of {
      label : string;
      guard : State.t -> bool;
      effect : context -> State.t -> unit;
    }
      (** A boolean-guarded action. *)
  | Receive of {
      label : string;
      from_ : string;
      guard : State.t -> bool;
      effect : context -> State.t -> Message.t -> unit;
    }
      (** A [rcv m from x] action: enabled when the channel from [x]
          has a message and [guard] holds; executing consumes the head
          message. (The paper's receive guards are unconditional; the
          extra guard models a host that is down or waiting on its
          wakeup SAVE, during which arrivals stay buffered in the
          channel.) *)

type t = {
  name : string;
  init : State.t;
      (** The initial state. Never written: each system that runs the
          process starts from a copy. *)
  actions : action list;
}

val make : name:string -> init:(string * Value.t) list -> actions:action list -> t

val action_label : action -> string
