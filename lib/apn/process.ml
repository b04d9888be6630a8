type context = {
  self : string;
  send : dst:string -> Message.t -> unit;
}

type action =
  | Internal of {
      label : string;
      guard : State.t -> bool;
      effect : context -> State.t -> unit;
    }
  | Receive of {
      label : string;
      from_ : string;
      guard : State.t -> bool;
      effect : context -> State.t -> Message.t -> unit;
    }

type t = {
  name : string;
  init : State.t;
  actions : action list;
}

let make ~name ~init ~actions = { name; init = State.create init; actions }

let action_label = function
  | Internal { label; _ } -> label
  | Receive { label; _ } -> label
