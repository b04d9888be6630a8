type outcome =
  | Exhausted of { states : int }
  | Limit_reached of { states : int }
  | Violation of { states : int; trace : string list }

let pp_outcome ppf = function
  | Exhausted { states } -> Format.fprintf ppf "exhausted (%d states, invariant holds)" states
  | Limit_reached { states } ->
    Format.fprintf ppf "limit reached (%d states, invariant holds so far)" states
  | Violation { states; trace } ->
    Format.fprintf ppf "VIOLATION after %d states; trace: %s" states
      (String.concat " ; " trace)

module Table = Hashtbl.Make (struct
  type t = System.snapshot

  let equal = System.snapshot_equal
  let hash = System.snapshot_hash
end)

let explore ?(max_states = 200_000) ~invariant system =
  let initial = System.snapshot system in
  (* Each state's parent, and the index of the step from the parent in
     its enabled_steps; the initial state is its own parent, at index
     -1. Labels are formatted only for a counterexample. *)
  let visited : (System.snapshot * int) Table.t = Table.create 4096 in
  Table.add visited initial (initial, -1);
  let frontier = Queue.create () in
  Queue.add initial frontier;
  let states = ref 1 in
  let trace_of snap =
    let rec path snap acc =
      match Table.find visited snap with
      | _, -1 -> acc
      | parent, index -> path parent ((parent, index) :: acc)
    in
    List.map
      (fun (parent, index) ->
        System.restore system parent;
        System.step_label (List.nth (System.enabled_steps system) index))
      (path snap [])
  in
  let check snap =
    System.restore system snap;
    invariant system
  in
  let result = ref None in
  if not (check initial) then result := Some (Violation { states = !states; trace = [] });
  while !result = None && not (Queue.is_empty frontier) do
    let snap = Queue.pop frontier in
    System.restore system snap;
    let steps = System.enabled_steps system in
    List.iteri
      (fun index step ->
        if !result = None then begin
          System.restore system snap;
          System.execute system step;
          let next = System.snapshot system in
          if not (Table.mem visited next) then begin
            Table.add visited next (snap, index);
            incr states;
            if not (invariant system) then
              result := Some (Violation { states = !states; trace = trace_of next })
            else if !states >= max_states then result := Some (Limit_reached { states = !states })
            else Queue.add next frontier
          end
        end)
      steps
  done;
  System.restore system initial;
  match !result with
  | Some outcome -> outcome
  | None -> Exhausted { states = !states }

let replay system trace =
  let rec step n = function
    | [] -> Ok ()
    | label :: rest -> (
      match
        List.find_opt
          (fun s -> String.equal (System.step_label s) label)
          (System.enabled_steps system)
      with
      | Some s ->
        System.execute system s;
        step (n + 1) rest
      | None ->
        Error (Printf.sprintf "step %d: %S is not enabled here" n label))
  in
  step 1 trace
