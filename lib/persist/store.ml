type checked_fetch =
  | Fetched of int
  | Missing
  | Corrupt
  | Stale of int

type t = {
  label : string;
  save :
    key:string ->
    value:int ->
    on_error:(unit -> unit) ->
    on_complete:(unit -> unit) ->
    unit;
  fetch : key:string -> int option;
  fetch_checked : key:string -> checked_fetch;
  preload : key:string -> value:int -> unit;
  crash : unit -> unit;
  base_latency : Resets_sim.Time.t;
}

let save ?(on_error = fun () -> ()) t ~key ~value ~on_complete =
  t.save ~key ~value ~on_error ~on_complete

let fetch t ~key = t.fetch ~key
let fetch_checked t ~key = t.fetch_checked ~key
let preload t ~key ~value = t.preload ~key ~value
let crash t = t.crash ()
let base_latency t = t.base_latency
let label t = t.label

type tally = {
  mutable begun : int;
  mutable completed : int;
  mutable failed : int;
  mutable torn : int;
  mutable lost : int;
  mutable corrupt : int;
  mutable stale : int;
}

let tally () =
  { begun = 0; completed = 0; failed = 0; torn = 0; lost = 0; corrupt = 0; stale = 0 }
