open Resets_util
open Resets_sim
open Resets_persist
open Resets_ipsec

type discipline =
  | Per_sa
  | Coalesced
  | Reestablish of { cost : Ike.cost }

type t = {
  engine : Engine.t;
  disk : Sim_disk.t;
  endpoints : Endpoint.t array;
  discipline : discipline;
  first_sa : int;
  k : int;
  leap : int;
  keys : string array;
  lst : int array; (* per-SA edge as of the last begun periodic save *)
  window : int;
  arena : Sadb_flat.t option;
  ike_prngs : Prng.t array option;
  spi_base : int32;
  retries : int;
  mutable handshake_messages : int;
  mutable down : bool;
  mutable recovering : bool;
      (* a Coalesced recovery snapshot is in flight: the periodic flush
         must hold off or it would supersede that snapshot (same keys)
         and silently drop recovery's completion *)
}

let sa_key i = Printf.sprintf "sa-%d" i

let receiver_i t i = Endpoint.receiver t.endpoints.(i)

(* Coalesced periodic persistence, sharding-safe form: ONE snapshot
   write per fixed flush period covers every SA's current edge. The
   flush schedule is absolute time [P, 2P, 3P, ...] — a constant of
   the simulation, not a function of traffic — and each SA's value in
   the snapshot is its own edge, so what is durable for SA [i] at any
   instant (in particular at a crash) depends only on [i]'s own packet
   stream and the global clock, never on which other SAs share the
   host. That is what lets a host be split across D shards without
   changing any SA's recovery leap. (The previous scheme began a batch
   when the FIRST SA crossed its K threshold; that trigger time
   depends on the batch's membership, so a shard's durable edges would
   have drifted from the unsharded host's.) A flush with no advanced
   edge is skipped — the write would change no durable value. *)
let maybe_flush t =
  if (not t.down) && not t.recovering then begin
    let advanced = ref false in
    let edges =
      Array.init (Array.length t.endpoints) (fun i ->
          let r = Receiver.right_edge (receiver_i t i) in
          if r > t.lst.(i) then advanced := true;
          r)
    in
    if !advanced then begin
      let prev = Array.copy t.lst in
      Array.iteri (fun i r -> t.lst.(i) <- r) edges;
      Sim_disk.save_snapshot t.disk
        ~entries:(Array.mapi (fun i r -> (t.keys.(i), r)) edges)
        ~on_error:(fun () ->
          (* Nothing (or only a torn prefix) became durable: roll the
             thresholds back so the next flush period retries. *)
          Array.iteri
            (fun i r -> if t.lst.(i) = edges.(i) then t.lst.(i) <- r)
            prev)
        ~on_complete:(fun () -> ())
    end
  end

(* One IKE-lite handshake for SA [i], keyed by global index: fresh
   parameters installed on both ends when it completes. Shared by the
   Reestablish discipline and by degraded recovery. *)
let establish_sa t ~cost ~prngs i ~on_done =
  let g = t.first_sa + i in
  t.handshake_messages <- t.handshake_messages + Ike.message_count;
  let spi = Int32.add t.spi_base (Int32.of_int g) in
  Ike.establish ~window_width:t.window ?arena:t.arena t.engine
    ~cost ~prng:prngs.(i) ~spi
    ~on_complete:(fun params ->
      let ep = t.endpoints.(i) in
      Sender.install_sa (Endpoint.sender ep) (Sa.create params);
      Receiver.install_sa (Endpoint.receiver ep) (Sa.create params);
      on_done ())

(* Degraded recovery of one SA: its durable record exhausted the retry
   budget, so stop trusting the store and renegotiate — fresh keys,
   fresh sequence space, window at edge 0. Requires ike_prngs; without
   renegotiation material the endpoint keeps its own retry pace. *)
let degrade_sa t i =
  match t.ike_prngs with
  | None -> ()
  | Some prngs ->
    establish_sa t ~cost:Ike.default_cost ~prngs i ~on_done:(fun () ->
        let ep = t.endpoints.(i) in
        if Receiver.is_down (Endpoint.receiver ep) then
          Receiver.resume_at (Endpoint.receiver ep) ~edge:0
        else Receiver.resync_store (Endpoint.receiver ep);
        if Sender.is_down (Endpoint.sender ep) then
          Sender.resume_fresh (Endpoint.sender ep)
        else Sender.resync_store (Endpoint.sender ep))

let create ?(k = 25) ?leap ?(window = 64) ?arena ?ike_prngs ?(first_sa = 0)
    ?(spi_base = 0x6000l) ?flush_period ?(retries = 3) ~disk ~discipline
    endpoints engine =
  let n = Array.length endpoints in
  if n = 0 then invalid_arg "Host.create: no endpoints";
  (match ike_prngs with
  | Some a when Array.length a <> n ->
    invalid_arg "Host.create: ike_prngs must have one generator per endpoint"
  | Some _ | None -> ());
  let leap =
    match leap with
    | Some l -> l
    | None -> 2 * k
  in
  let t =
    {
      engine;
      disk;
      endpoints;
      discipline;
      first_sa;
      k;
      leap;
      keys = Array.init n (fun i -> sa_key (first_sa + i));
      lst = Array.make n 0;
      window;
      arena;
      ike_prngs;
      spi_base;
      retries;
      handshake_messages = 0;
      down = false;
      recovering = false;
    }
  in
  (match discipline with
  | Coalesced ->
    (* Host-managed persistence: the receivers carry none of their own;
       the host preloads established state and flushes every SA's edge
       in one snapshot per flush period. *)
    Array.iteri
      (fun i ep ->
        Sim_disk.preload disk ~key:t.keys.(i)
          ~value:(Receiver.right_edge (Endpoint.receiver ep)))
      endpoints;
    let period =
      match flush_period with
      | Some p -> p
      | None -> Time.mul (Sim_disk.base_latency disk) k
    in
    if Time.(period <= Time.zero) then
      invalid_arg "Host.create: flush_period must be positive";
    let rec tick () =
      maybe_flush t;
      ignore (Engine.schedule_after engine ~after:period tick)
    in
    ignore (Engine.schedule_after engine ~after:period tick)
  | Per_sa | Reestablish _ -> ());
  (* Per-SA persistence: when renegotiation material is available, wire
     each receiver's degrade fallback so a faulty store cannot wedge an
     SA. (The receiver bumps [Metrics.degraded_reestablish] itself.) *)
  (match (discipline, ike_prngs) with
  | Per_sa, Some _ ->
    Array.iteri
      (fun i ep ->
        Receiver.set_degrade_handler (Endpoint.receiver ep) (fun () ->
            degrade_sa t i))
      endpoints
  | _ -> ());
  t

let endpoints t = t.endpoints
let sa_count t = Array.length t.endpoints
let first_sa t = t.first_sa
let is_down t = t.down
let handshake_messages t = t.handshake_messages

let reset t =
  if not t.down then begin
    t.down <- true;
    (* A crash also kills an in-flight recovery snapshot, whose
       completion will never fire. *)
    t.recovering <- false;
    (* One crash: the whole host's RAM and every in-flight write die
       together, whatever keys they covered. *)
    Sim_disk.crash t.disk;
    Array.iter (fun ep -> Receiver.reset (Endpoint.receiver ep)) t.endpoints
  end

let durable_edge t i =
  match Sim_disk.fetch t.disk ~key:t.keys.(i) with
  | Some v -> v
  | None -> 0

(* Verified read of SA [i]'s durable record with bounded immediate
   re-reads (the faults are transient: a re-read may serve the good
   copy). [None] after the budget — the caller degrades the SA. *)
let checked_durable_edge t i =
  let metrics = Endpoint.metrics t.endpoints.(i) in
  let rec go n =
    match Sim_disk.fetch_checked t.disk ~key:t.keys.(i) with
    | Sim_disk.Fetched v -> Some v
    | Sim_disk.Fetch_missing -> Some 0
    | Sim_disk.Fetch_corrupt | Sim_disk.Fetch_stale _ ->
      metrics.Metrics.fetch_failures <- metrics.Metrics.fetch_failures + 1;
      if n + 1 >= t.retries then None
      else begin
        metrics.Metrics.save_retries <- metrics.Metrics.save_retries + 1;
        go (n + 1)
      end
  in
  go 0

(* Recovery schedules are keyed by GLOBAL SA index: SA [g] begins its
   step at [recover_time + g * step] where [step] is the discipline's
   fixed per-SA cost. On one host this reproduces the sequential
   "recover SA 0, then SA 1, ..." chain exactly (the single disk
   serializes the writes, so recovery time grows linearly with the SA
   count — what E7/E14 measure); on a sharded host each shard schedules
   only its own SAs, at the very same absolute times the unsharded
   chain would have reached them. That closed form is what gives the
   parallel run a sequential oracle; it requires the per-SA step to be
   deterministic, hence an un-jittered disk (Per_sa) and the fixed IKE
   handshake duration (Reestablish). *)
let recover t ?(on_sa_ready = fun _ -> ()) ?(on_complete = fun () -> ()) () =
  if not t.down then invalid_arg "Host.recover: not down";
  t.down <- false;
  let n = sa_count t in
  let remaining = ref n in
  let ready i =
    on_sa_ready i;
    decr remaining;
    if !remaining = 0 then on_complete ()
  in
  match t.discipline with
  | Per_sa ->
    (* The paper's discipline, once per SA: FETCH + leap + blocking
       SAVE, each taking one disk-write latency. *)
    let step = Sim_disk.base_latency t.disk in
    Array.iteri
      (fun i _ ->
        ignore
          (Engine.schedule_after t.engine
             ~after:(Time.mul step (t.first_sa + i))
             (fun () ->
               Receiver.wakeup (receiver_i t i) ~on_ready:(fun () -> ready i) ())))
      t.endpoints
  | Coalesced ->
    (* Every durable edge (verified read) leaps; ONE snapshot write
       makes them all durable; then every SA resumes at once. O(1) in
       the SA count. SAs whose record stays unreadable after the retry
       budget degrade to re-establishment (when renegotiation material
       is available; otherwise fall back to the raw stored value). *)
    let can_degrade = t.ike_prngs <> None in
    let degraded = Array.make n false in
    let edges =
      Array.init n (fun i ->
          match checked_durable_edge t i with
          | Some v -> v + t.leap
          | None ->
            if can_degrade then begin
              degraded.(i) <- true;
              0
            end
            else durable_edge t i + t.leap)
    in
    Array.iteri
      (fun i bad ->
        if bad then begin
          let metrics = Endpoint.metrics t.endpoints.(i) in
          metrics.Metrics.degraded_reestablish <-
            metrics.Metrics.degraded_reestablish + 1;
          match t.ike_prngs with
          | None -> assert false
          | Some prngs ->
            establish_sa t ~cost:Ike.default_cost ~prngs i ~on_done:(fun () ->
                Receiver.resume_at (receiver_i t i) ~edge:0;
                ready i)
        end)
      degraded;
    let live =
      Array.to_list (Array.init n Fun.id)
      |> List.filter (fun i -> not degraded.(i))
    in
    if live <> [] then begin
      let entries =
        Array.of_list (List.map (fun i -> (t.keys.(i), edges.(i))) live)
      in
      t.recovering <- true;
      let base = Sim_disk.base_latency t.disk in
      let finish () =
        t.recovering <- false;
        List.iter
          (fun i ->
            t.lst.(i) <- edges.(i);
            Receiver.resume_at (receiver_i t i) ~edge:edges.(i);
            ready i)
          live
      in
      (* The recovery snapshot must become durable before any window
         resumes; a transient write failure is retried with capped
         exponential backoff. After the budget the remaining SAs
         degrade (with renegotiation material) or the retry loop keeps
         going at the capped pace — the faults are transient, so it
         terminates; either way nothing resumes on non-durable state. *)
      let rec attempt k =
        Sim_disk.save_snapshot t.disk ~entries
          ~on_error:(fun () ->
            if t.recovering then
              if k + 1 >= t.retries && can_degrade then begin
                t.recovering <- false;
                List.iter
                  (fun i ->
                    let metrics = Endpoint.metrics t.endpoints.(i) in
                    metrics.Metrics.degraded_reestablish <-
                      metrics.Metrics.degraded_reestablish + 1;
                    match t.ike_prngs with
                    | None -> assert false
                    | Some prngs ->
                      establish_sa t ~cost:Ike.default_cost ~prngs i
                        ~on_done:(fun () ->
                          Receiver.resume_at (receiver_i t i) ~edge:0;
                          ready i))
                  live
              end
              else
                ignore
                  (Engine.schedule_after t.engine
                     ~after:(Time.mul base (min (1 lsl k) 8))
                     (fun () -> if t.recovering then attempt (k + 1))))
          ~on_complete:finish
      in
      attempt 0
    end
  | Reestablish { cost } ->
    let prngs =
      match t.ike_prngs with
      | Some p -> p
      | None -> invalid_arg "Host.recover: Reestablish requires ike_prngs"
    in
    (* IKE-lite renegotiation per SA, sequentially: SA g's handshake
       occupies the host for the fixed handshake duration, so it starts
       g handshakes after recovery began. SPIs and nonces are keyed by
       global index too. *)
    let step = Ike.handshake_duration cost in
    Array.iteri
      (fun i _ ->
        let g = t.first_sa + i in
        ignore
          (Engine.schedule_after t.engine ~after:(Time.mul step g) (fun () ->
               establish_sa t ~cost ~prngs i ~on_done:(fun () ->
                   (* A fresh SA starts with a fresh window: resume at
                      edge 0 — nothing sent under the new keys yet. *)
                   Receiver.resume_at (receiver_i t i) ~edge:0;
                   ready i))))
      t.endpoints
