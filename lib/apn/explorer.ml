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

(* The visited states, by id: ids are given in discovery order, so
   the BFS frontier is the ids past a cursor. Each id holds its
   snapshot and its link: the parent's id and the index of the step
   in the parent's enabled_steps, packed into one int (-1 for the
   initial state). Both live in fixed-size chunks, so that growing
   copies nothing and leaves no old array for the GC to reclaim. A
   chunk holds 256 ids: an array of at most 256 words is allocated in
   the minor heap, whereas Array.make of a longer one filled with a
   young value (the initial snapshot) first forces a minor collection.

   The lookup is open addressing with linear probing over [slots]:
   0 is empty, else (id + 1) lsl 32 lor the hash's low 32 bits. The
   table doubles at three-quarters full, and rehashing reads only the
   slots, since a slot's index is those same low bits. *)
let chunk_bits = 8
let chunk = 1 lsl chunk_bits
let index_bits = 24
let low = 0xFFFF_FFFF

type visited = {
  blank : System.snapshot;  (* fills a chunk's unused ids *)
  mutable snaps : System.snapshot array array;
  mutable links : int array array;
  mutable count : int;
  mutable slots : int array;
  mutable mask : int;
}

let snapshot v id = v.snaps.(id lsr chunk_bits).(id land (chunk - 1))
let link v id = v.links.(id lsr chunk_bits).(id land (chunk - 1))

let rehash v =
  let slots = Array.make (2 * Array.length v.slots) 0 in
  let mask = Array.length slots - 1 in
  Array.iter
    (fun e ->
      if e <> 0 then begin
        let i = ref (e land low land mask) in
        while slots.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- e
      end)
    v.slots;
  v.slots <- slots;
  v.mask <- mask

(* Give the next id to [snap], whose hash is [h], at the empty slot
   [i]; returns the id. *)
let add v i h snap link =
  let id = v.count in
  let c = id lsr chunk_bits and k = id land (chunk - 1) in
  if k = 0 then begin
    if c = Array.length v.snaps then begin
      let more = max 4 c in
      v.snaps <- Array.append v.snaps (Array.make more [||]);
      v.links <- Array.append v.links (Array.make more [||])
    end;
    v.snaps.(c) <- Array.make chunk v.blank;
    v.links.(c) <- Array.make chunk 0
  end;
  v.snaps.(c).(k) <- snap;
  v.links.(c).(k) <- link;
  v.slots.(i) <- ((id + 1) lsl 32) lor (h land low);
  v.count <- id + 1;
  if 4 * v.count > 3 * Array.length v.slots then rehash v;
  id

let rec probe_from v system h i =
  let e = v.slots.(i) in
  if e = 0 then i
  else if e land low = h land low && System.encoded_equal system (snapshot v ((e lsr 32) - 1))
  then -1
  else probe_from v system h ((i + 1) land v.mask)

(* The slot of the state encoded in [system]'s buffer, whose hash is
   [h]: its empty slot, or -1 when it was visited *)
let probe v system h = probe_from v system h (h land v.mask)

let explore ?(max_states = 200_000) ~invariant system =
  System.encode system;
  let h = System.encoded_hash system in
  let initial = System.encoded system in
  let v =
    {
      blank = initial;
      snaps = [||];
      links = [||];
      count = 0;
      slots = Array.make 4096 0;
      mask = 4095;
    }
  in
  ignore (add v (probe v system h) h initial (-1));
  (* Labels are formatted only for a counterexample. *)
  let trace_of id =
    let rec path id acc =
      match link v id with
      | -1 -> acc
      | l -> path (l lsr index_bits) (l :: acc)
    in
    List.map
      (fun l ->
        System.restore system (snapshot v (l lsr index_bits));
        System.step_label
          (List.nth (System.enabled_steps system) (l land ((1 lsl index_bits) - 1))))
      (path id [])
  in
  let result = ref None in
  System.restore system initial;
  if not (invariant system) then result := Some (Violation { states = 1; trace = [] });
  (* the next id to expand *)
  let next = ref 0 in
  while Option.is_none !result && !next < v.count do
    let id = !next in
    incr next;
    let snap = snapshot v id in
    System.restore system snap;
    let steps = ref (System.enabled_steps system) and index = ref 0 in
    while Option.is_none !result && !steps != [] do
      match !steps with
      | [] -> ()
      | step :: rest ->
        steps := rest;
        (* the first successor starts from the state just restored *)
        if !index > 0 then System.restore system snap;
        System.execute system step;
        System.encode system;
        let h = System.encoded_hash system in
        let i = probe v system h in
        if i >= 0 then begin
          if !index lsr index_bits <> 0 then invalid_arg "Explorer.explore: too many steps";
          let fresh = add v i h (System.encoded system) ((id lsl index_bits) lor !index) in
          if not (invariant system) then
            result := Some (Violation { states = v.count; trace = trace_of fresh })
          else if v.count >= max_states then result := Some (Limit_reached { states = v.count })
        end;
        incr index
    done
  done;
  System.restore system initial;
  match !result with
  | Some outcome -> outcome
  | None -> Exhausted { states = v.count }

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
