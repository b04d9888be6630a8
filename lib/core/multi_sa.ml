open Resets_util
open Resets_sim
open Resets_persist
open Resets_ipsec

type discipline = [ `Save_fetch_per_sa | `Save_fetch_coalesced | `Reestablish ]

type config = {
  sa_count : int;
  k : int;
  save_latency : Time.t;
  message_gap : Time.t;
  link_latency : Time.t;
  reset_at : Time.t;
  downtime : Time.t;
  horizon : Time.t;
  ike_cost : Ike.cost;
  attack : Endpoint.attack;
  keep_trace : bool;
}

let default_config =
  {
    sa_count = 16;
    k = 25;
    save_latency = Time.of_us 100;
    message_gap = Time.of_us 100;
    link_latency = Time.of_us 10;
    reset_at = Time.of_ms 10;
    downtime = Time.of_ms 1;
    horizon = Time.of_ms 120;
    ike_cost = Ike.default_cost;
    attack = Endpoint.No_attack;
    keep_trace = false;
  }

type shard_stat = {
  stat_lo : int;
  stat_hi : int;
  stat_events_fired : int;
  stat_wall_s : float;
}

type outcome = {
  ready_time : Time.t;
  recovery_time : Time.t;
  recovered_fully : bool;
  messages_lost : int;
  replay_accepted : int;
  adversary_injected : int;
  duplicate_deliveries : int;
  disk_writes : int;
  disk_saves_lost : int;
  disk_saves_failed : int;
  disk_fetches_corrupt : int;
  link_dropped : int;
  link_duplicated : int;
  link_reordered : int;
  handshake_messages : int;
  delivered : int;
  events_fired : int;
  shard_stats : shard_stat array;
  trace : Trace.entry list;
}

(* What one shard reports: SAs [lo..hi), simulated on their own engine
   and disk. [merge] reduces these to the whole-host outcome. *)
type shard_result = {
  lo : int;
  hi : int;
  ready_at : Time.t option;
      (* absolute time every SA in range was processing again *)
  recovered_at : Time.t option;
      (* absolute time every SA in range had delivered again *)
  metrics : Metrics.t;
  adversary_injected : int;
  disk_writes : int;
  disk_saves_lost : int;
  disk_saves_failed : int;
  disk_fetches_corrupt : int;
  link_dropped : int;
  link_duplicated : int;
  link_reordered : int;
  handshake_messages : int;
  events_fired : int;
  wall_s : float;
  trace : Trace.entry list;
}

let partition ~sa_count ~shards =
  if shards < 1 || shards > sa_count then
    invalid_arg "Multi_sa.partition: need 1 <= shards <= sa_count";
  let base = sa_count / shards and rem = sa_count mod shards in
  Array.init shards (fun i ->
      (* the first [rem] shards carry one extra SA *)
      let lo = (i * base) + min i rem in
      let hi = lo + base + if i < rem then 1 else 0 in
      (lo, hi))

(* Every SA in a sharded run uses the default window width; its hot
   state (counters + window words) lives in one flat arena per shard,
   so the shard's per-packet working set is a cache-linear block the
   GC never traces. See Sadb_flat and DESIGN.md §2e. *)
let window_width = 64

(* A bounded capture buffer per tapped link: enough for any replay the
   scenarios stage. The buffer grows with the packets it retains, not
   with the bound, so the bound only caps what a long run retains per
   link (the default 2^20-entry recorder would let each of
   thousands of links hold a million packets). *)
let tap_capacity = 4096

(* ------------------------------------------------------------------ *)
(* The receiver host of one shard: its SAs share its clock and its one
   disk. It implements the three recovery disciplines:

   - [`Save_fetch_per_sa]: the paper, verbatim per SA. Each receiver
     persists under [sa_key g] itself, and recovery is FETCH + leap +
     blocking SAVE, serialized on the single disk: O(n).
   - [`Save_fetch_coalesced]: our extension. The receivers carry no
     persistence; one snapshot write per fixed flush period covers
     every SA's edge, and recovery leaps every durable edge and makes
     them all durable in one snapshot write: O(1) in the SA count.
   - [`Reestablish]: the IETF default the paper argues against:
     renegotiate every SA with IKE-lite, serially.

   A logical host of [n] SAs may be split across D shards without
   changing any SA's outcome. Every per-SA schedule (recovery stagger,
   SPI, disk key) is computed from the SA's global index
   [g = first_sa + i], and nothing an SA does depends on which other
   SAs share its shard: serialized recovery is a closed-form stagger
   rather than a chain, and the coalesced flush runs on a fixed
   absolute schedule and writes each SA's own edge. *)

(* Disk key of SA [g]'s receiver edge, [g] the global index: the
   per-SA receivers' SAVEs and the coalesced snapshots share it. *)
let sa_key g = Printf.sprintf "sa-%d" g

(* Re-established SA [g] takes SPI 0x6000 + g, clear of the 0x4000 + g
   it was established with. *)
let spi_base = 0x6000l

type host = {
  config : config;
  engine : Engine.t;
  disk : Sim_disk.t;
  discipline : discipline;
  endpoints : Endpoint.t array;
  first_sa : int; (* global index of SA 0 on this shard *)
  ike_prngs : Prng.t array; (* one generator per SA *)
  keys : string array;
  lst : int array; (* per-SA edge as of the last begun coalesced flush *)
  mutable handshakes : int; (* wire messages spent renegotiating *)
  mutable down : bool;
  mutable recovering : bool;
      (* a coalesced recovery snapshot is in flight: the periodic flush
         must hold off or it would supersede that snapshot (same keys)
         and silently drop recovery's completion *)
}

let receiver_i h i = Endpoint.receiver h.endpoints.(i)

(* Coalesced periodic persistence, sharding-safe form: ONE snapshot
   write per fixed flush period covers every SA's current edge. The
   flush schedule is absolute time [P, 2P, 3P, ...], a constant of the
   simulation rather than a function of traffic, and each SA's value in
   the snapshot is its own edge. So what is durable for SA [i] at any
   instant (in particular at a crash) depends only on [i]'s own packet
   stream and the global clock, never on which other SAs share the
   shard. A flush with no advanced edge is skipped: the write would
   change no durable value. *)
let maybe_flush h =
  if (not h.down) && not h.recovering then begin
    let advanced = ref false in
    let edges =
      Array.init (Array.length h.endpoints) (fun i ->
          let r = Receiver.right_edge (receiver_i h i) in
          if r > h.lst.(i) then advanced := true;
          r)
    in
    if !advanced then begin
      let prev = Array.copy h.lst in
      Array.iteri (fun i r -> h.lst.(i) <- r) edges;
      Sim_disk.save_snapshot h.disk
        ~entries:(Array.mapi (fun i r -> (h.keys.(i), r)) edges)
        ~on_error:(fun () ->
          (* Nothing (or only a torn prefix) became durable: roll the
             thresholds back so the next flush period retries. *)
          Array.iteri
            (fun i r -> if h.lst.(i) = edges.(i) then h.lst.(i) <- r)
            prev)
        ~on_complete:(fun () -> ())
    end
  end

(* One IKE-lite handshake for SA [i], keyed by global index, then the
   fresh SA's two sides come up ({!Endpoint.resume_fresh}) and
   [on_done]. Shared by the Reestablish discipline and by degraded
   recovery. *)
let establish_sa h ~cost i ~on_done =
  let g = h.first_sa + i in
  h.handshakes <- h.handshakes + Ike.message_count;
  let ep = h.endpoints.(i) in
  Endpoint.reestablish ep ~cost ~prng:h.ike_prngs.(i)
    ~spi:(Int32.add spi_base (Int32.of_int g))
    ~on_installed:(fun () ->
      Endpoint.resume_fresh ep;
      on_done ())

(* Degraded recovery of one per-SA receiver: its durable record
   exhausted the retry budget, so stop trusting the store and
   renegotiate: fresh keys, fresh sequence space, window at edge 0. *)
let degrade_sa h i = establish_sa h ~cost:Ike.default_cost i ~on_done:ignore

(* Wire the host to its endpoints. Coalesced: preload every SA's
   established edge and start the periodic flush, one snapshot per
   [message_gap * k]. Per-SA: a receiver that exhausts its retry budget
   against a faulty store degrades to re-establishment rather than
   wedging its SA (the receiver bumps [Metrics.degraded_reestablish]
   itself). *)
let create_host config ~engine ~disk ~discipline ~first_sa ~ike_prngs
    endpoints =
  let n = Array.length endpoints in
  let h =
    {
      config;
      engine;
      disk;
      discipline;
      endpoints;
      first_sa;
      ike_prngs;
      keys = Array.init n (fun i -> sa_key (first_sa + i));
      lst = Array.make n 0;
      handshakes = 0;
      down = false;
      recovering = false;
    }
  in
  (match discipline with
  | `Save_fetch_coalesced ->
    Array.iteri
      (fun i ep ->
        Sim_disk.preload disk ~key:h.keys.(i)
          ~value:(Receiver.right_edge (Endpoint.receiver ep)))
      endpoints;
    let period = Time.mul config.message_gap config.k in
    if Time.(period <= Time.zero) then
      invalid_arg "Multi_sa.run: flush period (message_gap * k) must be positive";
    let rec tick () =
      maybe_flush h;
      ignore (Engine.schedule_after engine ~after:period tick)
    in
    ignore (Engine.schedule_after engine ~after:period tick)
  | `Save_fetch_per_sa ->
    Array.iteri
      (fun i ep ->
        Receiver.set_degrade_handler (Endpoint.receiver ep) (fun () ->
            degrade_sa h i))
      endpoints
  | `Reestablish -> ());
  h

(* Crash the host: every receiver goes down together, and the one disk
   loses every in-flight write, whatever keys it covered. A crash also
   kills an in-flight recovery snapshot, whose completion will never
   fire. *)
let reset h =
  if not h.down then begin
    h.down <- true;
    h.recovering <- false;
    Sim_disk.crash h.disk;
    Array.iter (fun ep -> Receiver.reset (Endpoint.receiver ep)) h.endpoints
  end

(* Verified read of SA [i]'s durable record with bounded immediate
   re-reads (the faults are transient: a re-read may serve the good
   copy). [None] after the budget: the caller degrades the SA. *)
let checked_durable_edge h i =
  let metrics = Endpoint.metrics h.endpoints.(i) in
  let rec go n =
    match Sim_disk.fetch_checked h.disk ~key:h.keys.(i) with
    | Store.Fetched v -> Some v
    | Store.Missing -> Some 0
    | Store.Corrupt | Store.Stale _ ->
      metrics.Metrics.fetch_failures <- metrics.Metrics.fetch_failures + 1;
      if n + 1 >= Durable.retries then None
      else begin
        metrics.Metrics.save_retries <- metrics.Metrics.save_retries + 1;
        go (n + 1)
      end
  in
  go 0

(* Recovery schedules are keyed by GLOBAL SA index: SA [g] begins its
   step at [recover_time + g * step], where [step] is the discipline's
   fixed per-SA cost. On one shard this reproduces the sequential
   "recover SA 0, then SA 1, ..." chain exactly (the single disk
   serializes the writes, so recovery time grows linearly with the SA
   count, which is what E7 and E14 measure); on a sharded host each
   shard schedules only its own SAs, at the very same absolute times
   the unsharded chain would have reached them. That closed form is
   what gives the parallel run a sequential oracle. It needs a
   deterministic per-SA step, hence an un-jittered disk (per-SA) and
   the fixed IKE handshake duration (Reestablish). [on_complete] fires
   when every SA is processing again. *)
let recover h ~on_complete =
  h.down <- false;
  let n = Array.length h.endpoints in
  let remaining = ref n in
  let ready () =
    decr remaining;
    if !remaining = 0 then on_complete ()
  in
  match h.discipline with
  | `Save_fetch_per_sa ->
    (* The paper's discipline, once per SA: FETCH + leap + blocking
       SAVE, each taking one disk-write latency. *)
    let step = Sim_disk.base_latency h.disk in
    Array.iteri
      (fun i _ ->
        ignore
          (Engine.schedule_after h.engine ~after:(Time.mul step (h.first_sa + i))
             (fun () -> Receiver.wakeup (receiver_i h i) ~on_ready:ready ())))
      h.endpoints
  | `Save_fetch_coalesced ->
    (* Every durable edge (verified read) leaps by the leap the per-SA
       receivers take from their policy; ONE snapshot write makes them
       all durable; then every SA resumes at once. SAs whose record
       stays unreadable after the retry budget degrade to
       re-establishment. *)
    let leap = K_policy.leap (K_policy.make (K_policy.static h.config.k)) in
    let degraded = Array.make n false in
    let edges =
      Array.init n (fun i ->
          match checked_durable_edge h i with
          | Some v -> v + leap
          | None ->
            degraded.(i) <- true;
            0)
    in
    let degrade i =
      let metrics = Endpoint.metrics h.endpoints.(i) in
      metrics.Metrics.degraded_reestablish <-
        metrics.Metrics.degraded_reestablish + 1;
      establish_sa h ~cost:Ike.default_cost i ~on_done:ready
    in
    Array.iteri (fun i bad -> if bad then degrade i) degraded;
    let live =
      Array.to_list (Array.init n Fun.id)
      |> List.filter (fun i -> not degraded.(i))
    in
    if live <> [] then begin
      let entries =
        Array.of_list (List.map (fun i -> (h.keys.(i), edges.(i))) live)
      in
      h.recovering <- true;
      let base = Sim_disk.base_latency h.disk in
      let finish () =
        h.recovering <- false;
        List.iter
          (fun i ->
            h.lst.(i) <- edges.(i);
            Receiver.resume_at (receiver_i h i) ~edge:edges.(i);
            ready ())
          live
      in
      (* The recovery snapshot must become durable before any window
         resumes; a transient write failure is retried with capped
         exponential backoff, and after the budget the remaining SAs
         degrade. Nothing resumes on non-durable state. *)
      let rec attempt k =
        Sim_disk.save_snapshot h.disk ~entries
          ~on_error:(fun () ->
            if h.recovering then
              if k + 1 >= Durable.retries then begin
                h.recovering <- false;
                List.iter degrade live
              end
              else
                ignore
                  (Engine.schedule_after h.engine
                     ~after:(Durable.backoff base k)
                     (fun () -> if h.recovering then attempt (k + 1))))
          ~on_complete:finish
      in
      attempt 0
    end
  | `Reestablish ->
    (* IKE-lite renegotiation per SA, sequentially: SA g's handshake
       occupies the host for the fixed handshake duration, so it starts
       g handshakes after recovery began. *)
    let cost = h.config.ike_cost in
    let step = Ike.handshake_duration cost in
    Array.iteri
      (fun i _ ->
        ignore
          (Engine.schedule_after h.engine ~after:(Time.mul step (h.first_sa + i))
             (fun () ->
               (* A fresh SA starts with a fresh window: resume at edge
                  0, nothing sent under the new keys yet. *)
               establish_sa h ~cost i ~on_done:ready)))
      h.endpoints

(* ------------------------------------------------------------------ *)
(* One shard: SAs [lo..hi) on their own engine and disk. *)

let run_shard ~seed discipline config (lo, hi) =
  let wall_start = Unix.gettimeofday () in
  let n = hi - lo in
  let engine = Engine.create ~hint:(max 64 (4 * n)) () in
  let trace = if config.keep_trace then Some (Trace.create ()) else None in
  let disk = Sim_disk.create ?trace ~name:"disk.q" ~latency:config.save_latency engine in
  let tap =
    match config.attack with
    | Endpoint.No_attack -> Endpoint.No_tap
    | _ -> Endpoint.Tap { capacity = Some tap_capacity }
  in
  (* One endpoint per SA, each with its own metrics (sequence spaces
     overlap across SAs) and — under the per-SA discipline — its own
     key on this shard's disk. Everything random about SA [g] comes
     from a generator keyed by (seed, g) and is drawn in a fixed
     order, so the SA behaves identically whatever shard carries it
     and however many shards there are. *)
  let ike_prngs = Array.make n (Prng.create 0) in
  let offsets = Array.make n Time.zero in
  (* Two slots per SA (sender side + receiver side); re-established SAs
     take fresh slots, which the doubling growth absorbs. *)
  let hot = Sadb_flat.create ~capacity:(2 * n) ~w:window_width () in
  let endpoint_of i =
    let g = lo + i in
    let sa_prng = Prng.keyed ~seed ~stream:g in
    let link_prng = Prng.split sa_prng in
    offsets.(i) <-
      Time.of_ns
        (Int64.of_int
           (Prng.int sa_prng (Int64.to_int (Time.to_ns config.message_gap) + 1)));
    ike_prngs.(i) <- sa_prng;
    let receiver_persistence =
      match discipline with
      | `Save_fetch_per_sa ->
        Some
          {
            Receiver.store = Sim_disk.store disk;
            key = sa_key g;
            policy = K_policy.make (K_policy.static config.k);
            robust = false;
            wakeup_buffer = false;
            retries = Durable.retries;
          }
      | `Save_fetch_coalesced | `Reestablish ->
        (* the host manages durability (or renegotiates instead) *)
        None
    in
    Endpoint.create ?trace
      ~sender_name:(Printf.sprintf "p%d" g)
      ~receiver_name:(Printf.sprintf "q%d" g)
      ~link_name:(Printf.sprintf "link%d" g)
      ~window:window_width ~arena:hot ~link_prng ~tap
      ~spi:(Int32.of_int (0x4000 + g))
      ~secret:(Printf.sprintf "multi-sa-%d" g)
      ~link_latency:config.link_latency
      ~traffic:(Resets_workload.Traffic.constant ~gap:config.message_gap)
      ~metrics:(Metrics.create ())
      ~sender_persistence:None ~receiver_persistence engine
  in
  let endpoints = Array.init n endpoint_of in
  let host =
    create_host config ~engine ~disk ~discipline ~first_sa:lo
      ~ike_prngs endpoints
  in
  (* Recovery bookkeeping: when is every SA in this range processing
     again, and when has every one delivered a fresh message again? *)
  let reset_happened = ref false in
  let all_ready_at = ref None in
  let all_recovered_at = ref None in
  let delivered_after_reset = Array.make n false in
  (* Countdown rather than a rescan: at 10^6 SAs an Array.for_all on
     every SA's first post-reset delivery would cost O(n^2) over the
     run. *)
  let not_yet_recovered = ref n in
  Array.iteri
    (fun i ep ->
      Receiver.on_deliver (Endpoint.receiver ep) (fun ~seq:_ ~payload:_ ->
          if !reset_happened && not delivered_after_reset.(i) then begin
            delivered_after_reset.(i) <- true;
            decr not_yet_recovered;
            if !not_yet_recovered = 0 then
              all_recovered_at := Some (Engine.now engine)
          end))
    endpoints;
  (* Stagger start times so SAs do not act in lockstep, and give every
     link the same adversary the single-SA harness gets. *)
  Array.iteri
    (fun i ep ->
      ignore
        (Engine.schedule_after engine ~after:offsets.(i) (fun () ->
             Endpoint.start ep));
      Endpoint.schedule_attack ep ~message_gap:config.message_gap config.attack)
    endpoints;
  (* The fault: one host reset wipes every SA at once, then recovery
     under the configured discipline after the downtime. Every shard
     schedules these at the same absolute times, so the D shards crash
     and recover as one logical host. *)
  ignore
    (Engine.schedule_at engine ~at:config.reset_at (fun () ->
         reset_happened := true;
         reset host));
  ignore
    (Engine.schedule_at engine
       ~at:(Time.add config.reset_at config.downtime)
       (fun () ->
         recover host ~on_complete:(fun () ->
             all_ready_at := Some (Engine.now engine))));
  ignore (Engine.run ~until:config.horizon engine);
  let totals = Metrics.create () in
  Array.iter
    (fun ep -> Metrics.absorb ~into:totals (Endpoint.metrics ep))
    endpoints;
  let sum f = Array.fold_left (fun acc ep -> acc + f ep) 0 endpoints in
  {
    lo;
    hi;
    ready_at = !all_ready_at;
    recovered_at = !all_recovered_at;
    metrics = totals;
    adversary_injected = sum Endpoint.injected_count;
    disk_writes = Sim_disk.saves_completed disk;
    disk_saves_lost = Sim_disk.saves_lost disk;
    disk_saves_failed = Sim_disk.saves_failed disk;
    disk_fetches_corrupt =
      Sim_disk.fetches_corrupt disk + Sim_disk.fetches_stale disk;
    link_dropped = sum (fun ep -> Link.dropped (Endpoint.link ep));
    link_duplicated = sum (fun ep -> Link.duplicated (Endpoint.link ep));
    link_reordered = sum (fun ep -> Link.reordered (Endpoint.link ep));
    handshake_messages = host.handshakes;
    events_fired = Engine.fired_count engine;
    wall_s = Unix.gettimeofday () -. wall_start;
    trace =
      (match trace with
      | Some tr -> Trace.entries tr
      | None -> []);
  }

(* [results] tile [0, sa_count) in SA order (they come from
   [partition]), so the merge is a deterministic SA-ordered reduction,
   not a bag union. *)
let merge config (results : shard_result array) =
  (* "All SAs are X" over the whole host is "all shards report all
     their SAs are X", at the latest of the shard times. *)
  let latest field =
    Array.fold_left
      (fun acc r ->
        match (acc, field r) with
        | Some a, Some b -> Some (Time.max a b)
        | _ -> None)
      (Some Time.zero) results
  in
  let all_ready_at = latest (fun r -> r.ready_at) in
  let all_recovered_at = latest (fun r -> r.recovered_at) in
  let capped = function
    | Some t -> Time.diff t config.reset_at
    | None -> Time.diff config.horizon config.reset_at
  in
  let totals = Metrics.create () in
  Array.iter (fun r -> Metrics.absorb ~into:totals r.metrics) results;
  let sum field = Array.fold_left (fun acc r -> acc + field r) 0 results in
  let trace =
    (* Stable sort of the shard-order concatenation: time order, with
       shard order breaking ties at equal timestamps. *)
    List.stable_sort
      (fun (a : Trace.entry) (b : Trace.entry) -> Time.compare a.time b.time)
      (List.concat_map (fun r -> r.trace) (Array.to_list results))
  in
  {
    ready_time = capped all_ready_at;
    recovery_time = capped all_recovered_at;
    recovered_fully = all_recovered_at <> None;
    messages_lost = totals.Metrics.dropped_host_down + totals.Metrics.bad_icv;
    replay_accepted = totals.Metrics.replay_accepted;
    adversary_injected = sum (fun r -> r.adversary_injected);
    duplicate_deliveries = totals.Metrics.duplicate_deliveries;
    disk_writes = sum (fun r -> r.disk_writes);
    disk_saves_lost = sum (fun r -> r.disk_saves_lost);
    disk_saves_failed = sum (fun r -> r.disk_saves_failed);
    disk_fetches_corrupt = sum (fun r -> r.disk_fetches_corrupt);
    link_dropped = sum (fun r -> r.link_dropped);
    link_duplicated = sum (fun r -> r.link_duplicated);
    link_reordered = sum (fun r -> r.link_reordered);
    handshake_messages = sum (fun r -> r.handshake_messages);
    delivered = totals.Metrics.delivered;
    events_fired = sum (fun r -> r.events_fired);
    shard_stats =
      Array.map
        (fun r ->
          {
            stat_lo = r.lo;
            stat_hi = r.hi;
            stat_events_fired = r.events_fired;
            stat_wall_s = r.wall_s;
          })
        results;
    trace;
  }

let run ?(seed = 11) ?(domains = 1) discipline config =
  if config.sa_count <= 0 then
    invalid_arg "Multi_sa.run: sa_count must be positive";
  if domains < 1 then invalid_arg "Multi_sa.run: domains must be positive";
  if domains > config.sa_count then
    invalid_arg "Multi_sa.run: more domains than SAs";
  let shards = partition ~sa_count:config.sa_count ~shards:domains in
  let run_shard = run_shard ~seed discipline config in
  let results =
    if domains = 1 then
      (* No parallelism requested: run inline, no domain spawned. *)
      [| run_shard shards.(0) |]
    else begin
      let spawned =
        Array.map (fun range -> Domain.spawn (fun () -> run_shard range)) shards
      in
      (* Join every shard before re-raising any failure, so no domain
         outlives the run. *)
      let joined =
        Array.map
          (fun d ->
            match Domain.join d with
            | r -> Ok r
            | exception e -> Error (e, Printexc.get_raw_backtrace ()))
          spawned
      in
      Array.map
        (function
          | Ok r -> r
          | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
        joined
    end
  in
  merge config results
