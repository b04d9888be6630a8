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

let run_shard ~seed discipline config (lo, hi) =
  let wall_start = Unix.gettimeofday () in
  let n = hi - lo in
  let engine = Engine.create ~hint:(max 64 (4 * n)) () in
  let trace = if config.keep_trace then Some (Trace.create ()) else None in
  let disk = Sim_disk.create ?trace ~name:"disk.q" ~latency:config.save_latency engine in
  let host_discipline =
    match discipline with
    | `Save_fetch_per_sa -> Host.Per_sa
    | `Save_fetch_coalesced -> Host.Coalesced
    | `Reestablish -> Host.Reestablish { cost = config.ike_cost }
  in
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
            key = Host.sa_key g;
            policy = K_policy.make (K_policy.static config.k);
            robust = false;
            wakeup_buffer = false;
            retries = 3;
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
    Host.create ~k:config.k ~leap:(2 * config.k) ~ike_prngs ~first_sa:lo
      ~window:window_width ~arena:hot ~spi_base:0x6000l
      ~flush_period:(Time.mul config.message_gap config.k)
      ~disk ~discipline:host_discipline endpoints engine
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
         Host.reset host));
  ignore
    (Engine.schedule_at engine
       ~at:(Time.add config.reset_at config.downtime)
       (fun () ->
         Host.recover host
           ~on_complete:(fun () -> all_ready_at := Some (Engine.now engine))
           ()));
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
    handshake_messages = Host.handshake_messages host;
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
