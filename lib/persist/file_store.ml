type t = {
  dir : string;
  mutable faults : Faults.t option;
  mutable begun : int;
  mutable completed : int;
  mutable failed : int;
  mutable renames_torn : int;
  mutable corrupt_served : int;
  mutable stale_served : int;
}

let create ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  {
    dir;
    faults = None;
    begun = 0;
    completed = 0;
    failed = 0;
    renames_torn = 0;
    corrupt_served = 0;
    stale_served = 0;
  }

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

(* Crash-atomic, durable save of one checksummed envelope.

   Under a fault plan every save rolls {!Faults.roll_write} with two
   "entries" — the tmp write and the rename, the two phases a real
   filesystem save has. [`Fail] is a transient write/fsync failure
   (nothing touches the medium); [`Torn _] is the aborted rename. Both
   report [on_error]; retrying models re-attempting the write and may
   succeed — transient-fault semantics, same contract as Sim_disk. *)
let save ?(on_error = fun () -> ()) t ~key ~value ~on_complete =
  t.begun <- t.begun + 1;
  let outcome =
    match t.faults with
    | None -> `Ok
    | Some f -> Faults.roll_write f ~n_entries:2
  in
  match outcome with
  | `Fail ->
    t.failed <- t.failed + 1;
    on_error ()
  | (`Ok | `Torn _) as outcome -> (
    let final = path t key in
    let old = read_envelope ~key final in
    let gen = match old with Some e -> e.Envelope.gen + 1 | None -> 1 in
    let env = Envelope.make ~key ~value ~gen in
    match
      (* Keep the superseded record around for stale-read injection —
         only under a plan, so the fault-free path stays file-per-key. *)
      (match (t.faults, old) with
      | Some _, Some old_env ->
        ignore
          (atomic_write ~abort_before_rename:false ~dir:t.dir
             ~final:(prev_path t key)
             (Envelope.to_string old_env)
            : [ `Ok | `Aborted ])
      | _ -> ());
      atomic_write
        ~abort_before_rename:(outcome <> `Ok)
        ~dir:t.dir ~final (Envelope.to_string env)
    with
    | `Ok ->
      t.completed <- t.completed + 1;
      on_complete ()
    | `Aborted ->
      t.failed <- t.failed + 1;
      t.renames_torn <- t.renames_torn + 1;
      on_error ()
    | exception (Unix.Unix_error _ | Sys_error _) ->
      t.failed <- t.failed + 1;
      on_error ())

(* Establishment write: the durable truth, bypassing the fault plan
   (established state is durable by assumption — same contract as
   Sim_disk.preload). *)
let preload t ~key ~value =
  let final = path t key in
  let gen =
    match read_envelope ~key final with Some e -> e.Envelope.gen + 1 | None -> 1
  in
  match
    atomic_write ~abort_before_rename:false ~dir:t.dir ~final
      (Envelope.to_string (Envelope.make ~key ~value ~gen))
  with
  | `Ok | `Aborted -> ()
  | exception (Unix.Unix_error _ | Sys_error _) -> ()

let fetch t ~key =
  match read_envelope ~key (path t key) with
  | Some e -> Some e.Envelope.value
  | None -> None

let classify ~key served latest =
  if not (Envelope.verify ~key served) then `Corrupt
  else if served.Envelope.gen < latest.Envelope.gen then
    `Stale served.Envelope.value
  else `Fetched served.Envelope.value

let fetch_checked t ~key =
  let file = path t key in
  if not (Sys.file_exists file) then Store.Missing
  else
    match read_envelope ~key file with
    | None -> Store.Corrupt (* file exists but does not parse *)
    | exception Sys_error _ -> Store.Corrupt
    | Some latest -> (
      let served =
        match t.faults with
        | None -> latest
        | Some f -> (
          match Faults.roll_read f with
          | `Corrupt_bit bit ->
            { latest with Envelope.value = latest.Envelope.value lxor (1 lsl bit) }
          | `Stale -> (
            match read_envelope ~key (prev_path t key) with
            | Some p -> p
            | None -> latest)
          | `Ok -> latest)
      in
      match classify ~key served latest with
      | `Corrupt ->
        t.corrupt_served <- t.corrupt_served + 1;
        Store.Corrupt
      | `Stale v ->
        t.stale_served <- t.stale_served + 1;
        Store.Stale v
      | `Fetched v -> Store.Fetched v)

let crash (_ : t) = ()

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

let saves_begun t = t.begun
let saves_completed t = t.completed
let saves_failed t = t.failed
let renames_torn t = t.renames_torn
let fetches_corrupt t = t.corrupt_served
let fetches_stale t = t.stale_served

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
    table : (string, int) Hashtbl.t; (* durable truth, mirrors the file *)
    mutable gen : int;
    mutable s_begun : int;
    mutable s_completed : int;
    mutable s_failed : int;
    mutable s_torn : int;
    mutable s_corrupt : int;
    mutable s_stale : int;
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
    {
      file;
      prev_file = file ^ ".prev";
      dir;
      sfaults = faults;
      table;
      gen;
      s_begun = 0;
      s_completed = 0;
      s_failed = 0;
      s_torn = 0;
      s_corrupt = 0;
      s_stale = 0;
    }

  let entries s =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.table [])

  let write_table ?(faulty = true) s updates =
    s.s_begun <- s.s_begun + 1;
    (* the entries of THIS write: current durable truth plus the update *)
    let staged = Hashtbl.copy s.table in
    List.iter (fun (k, v) -> Hashtbl.replace staged k v) updates;
    let new_entries =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) staged [])
    in
    let n = List.length new_entries in
    let outcome =
      match s.sfaults with
      | Some f when faulty -> Faults.roll_write f ~n_entries:(max n 2)
      | _ -> `Ok
    in
    match outcome with
    | `Fail ->
      s.s_failed <- s.s_failed + 1;
      `Error
    | (`Ok | `Torn _) as outcome -> (
      let durable_entries =
        match outcome with
        | `Ok -> new_entries
        | `Torn prefix ->
          (* a strict prefix of the write's entries becomes durable;
             the rest keep their previous durable values (or vanish if
             they had none) — Sim_disk's torn-snapshot semantics *)
          List.filteri (fun i _ -> i < prefix) new_entries
          @ List.filter_map
              (fun (k, _) ->
                Option.map (fun v -> (k, v)) (Hashtbl.find_opt s.table k))
              (List.filteri (fun i _ -> i >= prefix) new_entries)
      in
      let gen = s.gen + 1 in
      match
        (match s.sfaults with
        | Some _ when Sys.file_exists s.file ->
          (* keep the superseded snapshot for stale-read injection *)
          (match read_file s.file with
          | Some old ->
            ignore
              (atomic_write ~abort_before_rename:false ~dir:s.dir
                 ~final:s.prev_file old
                : [ `Ok | `Aborted ])
          | None -> ())
        | _ -> ());
        atomic_write ~abort_before_rename:false ~dir:s.dir ~final:s.file
          (render ~gen durable_entries)
      with
      | `Ok | `Aborted ->
        s.gen <- gen;
        Hashtbl.reset s.table;
        List.iter (fun (k, v) -> Hashtbl.replace s.table k v) durable_entries;
        (match outcome with
        | `Torn _ ->
          s.s_failed <- s.s_failed + 1;
          s.s_torn <- s.s_torn + 1;
          `Error
        | `Ok ->
          s.s_completed <- s.s_completed + 1;
          `Done)
      | exception (Unix.Unix_error _ | Sys_error _) ->
        s.s_failed <- s.s_failed + 1;
        `Error)

  let save ?(on_error = fun () -> ()) s ~key ~value ~on_complete =
    match write_table s [ (key, value) ] with
    | `Done -> on_complete ()
    | `Error -> on_error ()

  let preload s ~key ~value =
    ignore (write_table ~faulty:false s [ (key, value) ] : [ `Done | `Error ])

  let fetch s ~key = Hashtbl.find_opt s.table key

  let fetch_checked s ~key =
    match Hashtbl.find_opt s.table key with
    | None -> Store.Missing
    | Some value -> (
      match s.sfaults with
      | None -> Store.Fetched value
      | Some f -> (
        match Faults.roll_read f with
        | `Corrupt_bit _ ->
          s.s_corrupt <- s.s_corrupt + 1;
          Store.Corrupt
        | `Stale -> (
          (* the superseded record: this key's value in the previous
             durable snapshot, when one exists and differs in gen *)
          match Option.bind (read_file s.prev_file) parse with
          | Some (pgen, pentries) when pgen < s.gen -> (
            match
              List.find_opt (fun (k, _, _) -> String.equal k key)
                (List.map (fun (k, v, sum) -> (k, v, sum)) pentries)
            with
            | Some (k, v, sum)
              when Int64.equal sum (Envelope.checksum ~key:k ~value:v ~gen:pgen)
              ->
              s.s_stale <- s.s_stale + 1;
              Store.Stale v
            | _ -> Store.Fetched value)
          | _ -> Store.Fetched value)
        | `Ok -> Store.Fetched value))

  let saves_begun s = s.s_begun
  let saves_completed s = s.s_completed
  let saves_failed s = s.s_failed
  let snapshots_torn s = s.s_torn
  let fetches_corrupt s = s.s_corrupt
  let fetches_stale s = s.s_stale

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
