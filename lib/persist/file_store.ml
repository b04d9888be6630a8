type t = { dir : string; mutable faults : Faults.t option; tally : Store.tally }

let create ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  { dir; faults = None; tally = Store.tally () }

let set_faults t faults = t.faults <- Some faults

(* Keys can contain characters unfit for filenames; encode them. *)
let path t key = Filename.concat t.dir (Resets_util.Hex.encode key ^ ".seq")
let prev_path t key = path t key ^ ".prev"

let fsync_dir dir =
  (* Durability of the rename itself: the directory entry must reach
     the medium, or a crash can forget the file existed at all. Some
     filesystems refuse fsync on a directory fd; that narrows the
     window back to rename-only atomicity rather than failing the
     save. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd

let write_all fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write fd bytes !off (len - !off) in
    if n <= 0 then raise (Unix.Unix_error (Unix.EIO, "write", ""));
    off := !off + n
  done

let read_file file =
  if not (Sys.file_exists file) then None
  else begin
    let ic = open_in_bin file in
    let content =
      try really_input_string ic (in_channel_length ic)
      with e ->
        close_in_noerr ic;
        raise e
    in
    close_in ic;
    Some content
  end

let read_envelope ~key file =
  match read_file file with
  | None | (exception Sys_error _) -> None
  | Some content -> Envelope.of_string ~key content

(* Write [content] to a unique tmp file, fsync, rename over [final],
   fsync the directory. An observer (or a crash) at any point sees
   either the old complete value or the new complete value — never a
   torn write — because the final name only ever changes via rename,
   and the data is on the medium before the rename makes it visible.
   [abort_before_rename] is the injected "torn rename": the tmp file is
   fully written (and deliberately left behind, as a crash would leave
   it) but the rename never happens — the old value stays the durable
   truth, which is exactly what the atomicity contract promises. *)
let atomic_write ~abort_before_rename ~dir ~final content =
  let tmp = Printf.sprintf "%s.%d.tmp" final (Unix.getpid ()) in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     write_all fd (Bytes.of_string content);
     Unix.fsync fd
   with e ->
     Unix.close fd;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Unix.close fd;
  if abort_before_rename then `Aborted
  else begin
    Unix.rename tmp final;
    fsync_dir dir;
    `Ok
  end

(* Install [value] as the key's next generation, crash-atomically and
   durably. Under a plan the record it replaces is kept first, as the
   superseded record a stale read serves, unless [abort] (the injected
   torn rename) leaves that record the latest; without a plan the store
   stays one file per key. *)
let install t ~key ~value ~abort =
  let final = path t key in
  let old = read_envelope ~key final in
  let gen = match old with Some e -> e.Envelope.gen + 1 | None -> 1 in
  (match (t.faults, old) with
  | Some _, Some old when not abort ->
    ignore
      (atomic_write ~abort_before_rename:false ~dir:t.dir
         ~final:(prev_path t key) (Envelope.to_string old)
        : [ `Ok | `Aborted ])
  | _ -> ());
  atomic_write ~abort_before_rename:abort ~dir:t.dir ~final
    (Envelope.to_string (Envelope.make ~key ~value ~gen))

(* Under a fault plan every save rolls {!Faults.roll_write} with two
   "entries" — the tmp write and the rename, the two phases a real
   filesystem save has. [`Fail] is a transient write/fsync failure
   (nothing touches the medium); [`Torn _] is the aborted rename. Both
   report [on_error]; retrying models re-attempting the write and may
   succeed — transient-fault semantics, same contract as Sim_disk. *)
let save ?(on_error = fun () -> ()) t ~key ~value ~on_complete =
  t.tally.begun <- t.tally.begun + 1;
  let outcome =
    match t.faults with
    | None -> `Ok
    | Some f -> Faults.roll_write f ~n_entries:2
  in
  let outcome =
    if outcome = `Fail then `Fail
    else
      match install t ~key ~value ~abort:(outcome <> `Ok) with
      | `Ok | `Aborted -> outcome
      | exception (Unix.Unix_error _ | Sys_error _) -> `Fail
  in
  Faults.count_write t.tally outcome;
  if outcome = `Ok then on_complete () else on_error ()

(* Establishment write: the durable truth, bypassing the fault plan
   (established state is durable by assumption — same contract as
   Sim_disk.preload). *)
let preload t ~key ~value =
  try ignore (install t ~key ~value ~abort:false : [ `Ok | `Aborted ])
  with Unix.Unix_error _ | Sys_error _ -> ()

let fetch t ~key =
  Option.map (fun e -> e.Envelope.value) (read_envelope ~key (path t key))

let fetch_checked t ~key =
  let file = path t key in
  if not (Sys.file_exists file) then Store.Missing
  else
    match read_envelope ~key file with
    | None ->
      (* the file exists but does not parse *)
      t.tally.corrupt <- t.tally.corrupt + 1;
      Store.Corrupt
    | Some latest ->
      Faults.serve t.faults t.tally ~key ~latest ~prev:(fun () ->
          read_envelope ~key (prev_path t key))

let keys t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter_map (fun name ->
         match Filename.chop_suffix_opt ~suffix:".seq" name with
         | None -> None
         | Some hex -> (
           try Some (Resets_util.Hex.decode hex) with Invalid_argument _ -> None))

let remove t ~key =
  let file = path t key in
  if Sys.file_exists file then Sys.remove file;
  let prev = prev_path t key in
  if Sys.file_exists prev then Sys.remove prev

let tally t = t.tally

let store ?(base_latency = Resets_sim.Time.of_ms 1) t =
  {
    Store.label = "file:" ^ t.dir;
    save =
      (fun ~key ~value ~on_error ~on_complete ->
        save ~on_error t ~key ~value ~on_complete);
    fetch = (fun ~key -> fetch t ~key);
    fetch_checked = (fun ~key -> fetch_checked t ~key);
    preload = (fun ~key ~value -> preload t ~key ~value);
    crash = (fun () -> ());
    base_latency;
  }

(* ------------------------------------------------------------------ *)
(* Coalesced snapshot store: every SA of a host (or worker shard) keeps
   its counter in ONE file, rewritten atomically as a whole on every
   save — the wire twin of Sim_disk.save_snapshot under Multi_sa's
   coalesced discipline. A crash loses or keeps all keys together, and
   recovery reads the whole fleet's edges back with one file read. *)

module Snapshot = struct
  type snap = {
    file : string;
    prev_file : string;
    dir : string;
    sfaults : Faults.t option;
    mutable table : (string, int) Hashtbl.t; (* durable truth, mirrors the file *)
    mutable gen : int;
    tally : Store.tally;
  }

  (* File format: line 0 is "gen N"; each further line is
     "hex(key) value sum-hex" with the envelope checksum computed at
     the snapshot's generation. Entries are written in sorted key
     order so the torn prefix is deterministic. *)
  let render ~gen entries =
    let buf = Buffer.create 256 in
    Buffer.add_string buf (Printf.sprintf "gen %d\n" gen);
    List.iter
      (fun (key, value) ->
        Buffer.add_string buf
          (Printf.sprintf "%s %d %Lx\n" (Resets_util.Hex.encode key) value
             (Envelope.checksum ~key ~value ~gen)))
      entries;
    Buffer.contents buf

  let parse content =
    match String.split_on_char '\n' content with
    | [] -> None
    | header :: lines -> (
      match String.split_on_char ' ' (String.trim header) with
      | [ "gen"; g ] -> (
        match int_of_string_opt g with
        | None -> None
        | Some gen ->
          let entries =
            List.filter_map
              (fun line ->
                match String.split_on_char ' ' (String.trim line) with
                | [ hex; v; sum ] -> (
                  match
                    ( (try Some (Resets_util.Hex.decode hex)
                       with Invalid_argument _ -> None),
                      int_of_string_opt v,
                      Int64.of_string_opt ("0x" ^ sum) )
                  with
                  | Some key, Some value, Some sum -> Some (key, value, sum)
                  | _ -> None)
                | _ -> None)
              lines
          in
          Some (gen, entries))
      | _ -> None)

  let load ?faults ~dir ~name () =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let file = Filename.concat dir (name ^ ".snap") in
    let table = Hashtbl.create 16 in
    let gen =
      match Option.bind (read_file file) parse with
      | Some (gen, entries) ->
        List.iter
          (fun (key, value, sum) ->
            (* only verified entries are recovered truth *)
            if Int64.equal sum (Envelope.checksum ~key ~value ~gen) then
              Hashtbl.replace table key value)
          entries;
        gen
      | None | (exception Sys_error _) -> 0
    in
    { file; prev_file = file ^ ".prev"; dir; sfaults = faults; table; gen;
      tally = Store.tally () }

  let sorted table =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

  let entries s = sorted s.table

  (* One write of the whole table with [key] set to [value] under
     [plan], and its outcome. A torn write lands a strict prefix of the
     sorted entries, and the rest keep their previous durable values (or
     stay absent): Sim_disk's torn-snapshot semantics. *)
  let write_table s ~plan ~key ~value =
    let staged = Hashtbl.copy s.table in
    Hashtbl.replace staged key value;
    let written = sorted staged in
    let outcome =
      match plan with
      | Some f -> Faults.roll_write f ~n_entries:(max (List.length written) 2)
      | None -> `Ok
    in
    if outcome = `Fail then `Fail
    else
      let table = Hashtbl.copy s.table in
      List.iter
        (fun (k, v) -> Hashtbl.replace table k v)
        (Faults.landed outcome written);
      let gen = s.gen + 1 in
      match
        (* keep the superseded snapshot for stale-read injection *)
        if Option.is_some s.sfaults then
          Option.iter
            (fun old ->
              ignore
                (atomic_write ~abort_before_rename:false ~dir:s.dir
                   ~final:s.prev_file old
                  : [ `Ok | `Aborted ]))
            (read_file s.file);
        atomic_write ~abort_before_rename:false ~dir:s.dir ~final:s.file
          (render ~gen (sorted table))
      with
      | `Ok | `Aborted ->
        s.gen <- gen;
        s.table <- table;
        outcome
      | exception (Unix.Unix_error _ | Sys_error _) -> `Fail

  let save ?(on_error = fun () -> ()) s ~key ~value ~on_complete =
    s.tally.begun <- s.tally.begun + 1;
    let outcome = write_table s ~plan:s.sfaults ~key ~value in
    Faults.count_write s.tally outcome;
    if outcome = `Ok then on_complete () else on_error ()

  (* Establishment write: bypasses the plan and is not counted. *)
  let preload s ~key ~value = ignore (write_table s ~plan:None ~key ~value)

  let fetch s ~key = Hashtbl.find_opt s.table key

  let fetch_checked s ~key =
    match Hashtbl.find_opt s.table key with
    | None -> Store.Missing
    | Some value ->
      (* the superseded record: this key's entry in the previous
         durable snapshot, when one exists with an older generation *)
      let prev () =
        match Option.bind (read_file s.prev_file) parse with
        | Some (pgen, pentries) when pgen < s.gen ->
          List.find_map
            (fun (k, value, sum) ->
              if String.equal k key then Some { Envelope.value; gen = pgen; sum }
              else None)
            pentries
        | _ -> None
      in
      Faults.serve s.sfaults s.tally ~key
        ~latest:(Envelope.make ~key ~value ~gen:s.gen)
        ~prev

  let tally s = s.tally

  let store ?(base_latency = Resets_sim.Time.of_ms 1) s =
    {
      Store.label = "snap:" ^ s.file;
      save =
        (fun ~key ~value ~on_error ~on_complete ->
          save ~on_error s ~key ~value ~on_complete);
      fetch = (fun ~key -> fetch s ~key);
      fetch_checked = (fun ~key -> fetch_checked s ~key);
      preload = (fun ~key ~value -> preload s ~key ~value);
      crash = (fun () -> ());
      base_latency;
    }
end
