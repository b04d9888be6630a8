(* The sharded simulation's contract: protocol-level outcomes are a
   function of the scenario, not of how many domains carry it. The
   suite diffs the inline 1-domain run against runs whose shards are
   spawned on 2 and 4 domains, field by field and trace by trace, and
   property-checks the two deterministic foundations: keyed PRNG
   streams and the partition. *)

open Resets_util
open Resets_sim
open Resets_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ms = Time.of_ms
let us = Time.of_us

(* ------------------------------------------------------------------ *)
(* Determinism differentials *)

let lan_ike =
  { Resets_ipsec.Ike.compute = us 200; rtt = ms 1; kdf_iterations = 256 }

let cfg ?(attack = Endpoint.No_attack) n =
  {
    Multi_sa.default_config with
    Multi_sa.sa_count = n;
    k = 10;
    reset_at = ms 5;
    downtime = ms 1;
    horizon = ms 40;
    ike_cost = lan_ike;
    attack;
  }

(* Every protocol-level field. events_fired and (for coalesced)
   disk_writes are per-shard bookkeeping, checked separately. *)
let check_same_outcome name (a : Multi_sa.outcome) (b : Multi_sa.outcome) =
  let tag f = Printf.sprintf "%s: %s" name f in
  Alcotest.(check int64) (tag "ready_time") (Time.to_ns a.ready_time)
    (Time.to_ns b.ready_time);
  Alcotest.(check int64) (tag "recovery_time") (Time.to_ns a.recovery_time)
    (Time.to_ns b.recovery_time);
  check_bool (tag "recovered_fully") a.recovered_fully b.recovered_fully;
  check_int (tag "messages_lost") a.messages_lost b.messages_lost;
  check_int (tag "replay_accepted") a.replay_accepted b.replay_accepted;
  check_int (tag "adversary_injected") a.adversary_injected b.adversary_injected;
  check_int (tag "duplicate_deliveries") a.duplicate_deliveries
    b.duplicate_deliveries;
  check_int (tag "handshake_messages") a.handshake_messages b.handshake_messages;
  check_int (tag "delivered") a.delivered b.delivered

let disciplines =
  [
    ("per-sa", `Save_fetch_per_sa);
    ("coalesced", `Save_fetch_coalesced);
    ("reestablish", `Reestablish);
  ]

let attacks =
  [ ("clean", Endpoint.No_attack); ("replay-all", Endpoint.Replay_all_at (ms 8)) ]

let test_domain_count_invariance () =
  List.iter
    (fun (dname, d) ->
      List.iter
        (fun (aname, attack) ->
          let cfg = cfg ~attack 16 in
          let seq = Multi_sa.run ~domains:1 d cfg in
          List.iter
            (fun domains ->
              let sharded = Multi_sa.run ~domains d cfg in
              let name f =
                Printf.sprintf "%s/%s 1 vs %d domains%s" dname aname domains f
              in
              check_same_outcome (name "") seq sharded;
              (* per-sa and reestablish write per SA, so even the write
                 counts must agree; coalesced snapshots once per shard *)
              match d with
              | `Save_fetch_per_sa | `Reestablish ->
                check_int (name " disk_writes") seq.Multi_sa.disk_writes
                  sharded.Multi_sa.disk_writes
              | `Save_fetch_coalesced -> ())
            [ 2; 4 ])
        attacks)
    disciplines

let test_seed_changes_outcome () =
  (* the differential above would pass trivially if runs ignored their
     inputs; distinct seeds must move at least the traffic phase *)
  let o1 = Multi_sa.run ~seed:1 `Save_fetch_coalesced (cfg 8) in
  let o2 = Multi_sa.run ~seed:2 `Save_fetch_coalesced (cfg 8) in
  check_bool "different seeds differ" true
    (o1.Multi_sa.delivered <> o2.Multi_sa.delivered
    || Time.to_ns o1.Multi_sa.recovery_time
       <> Time.to_ns o2.Multi_sa.recovery_time
    || o1.Multi_sa.messages_lost <> o2.Multi_sa.messages_lost)

let test_uneven_partition_runs () =
  (* 7 SAs over 3 domains: ranges of 3/2/2 — the merge must still tile *)
  let seq = Multi_sa.run ~domains:1 `Save_fetch_coalesced (cfg 7) in
  let sharded = Multi_sa.run ~domains:3 `Save_fetch_coalesced (cfg 7) in
  check_same_outcome "uneven 7/3" seq sharded;
  check_int "three shards" 3 (Array.length sharded.Multi_sa.shard_stats)

let test_domains_validated () =
  Alcotest.check_raises "domains=0"
    (Invalid_argument "Multi_sa.run: domains must be positive") (fun () ->
      ignore (Multi_sa.run ~domains:0 `Save_fetch_per_sa (cfg 4)));
  Alcotest.check_raises "domains>sas"
    (Invalid_argument "Multi_sa.run: more domains than SAs") (fun () ->
      ignore (Multi_sa.run ~domains:5 `Save_fetch_per_sa (cfg 4)))

let test_shard_failure_reraised () =
  (* K = 0 gives the coalesced host a zero flush period, which
     Host.create rejects inside every shard: the spawned path must join
     its domains and re-raise, as the inline path raises *)
  let bad = { (cfg 4) with Multi_sa.k = 0 } in
  List.iter
    (fun domains ->
      Alcotest.check_raises
        (Printf.sprintf "%d domains" domains)
        (Invalid_argument "Host.create: flush_period must be positive")
        (fun () -> ignore (Multi_sa.run ~domains `Save_fetch_coalesced bad)))
    [ 1; 2; 4 ]

let test_trace_packet_events_domain_invariant () =
  let packet_events (o : Multi_sa.outcome) =
    (* disk bookkeeping is per-shard (D crash/snapshot records instead
       of one); every other event stream must match exactly, so compare
       the multiset of non-disk events *)
    List.filter_map
      (fun (e : Trace.entry) ->
        if String.length e.source >= 4 && String.sub e.source 0 4 = "disk" then
          None
        else
          Some
            (Printf.sprintf "%Ld %s %s %s" (Time.to_ns e.time) e.source e.event
               e.detail))
      o.Multi_sa.trace
    |> List.sort String.compare
  in
  List.iter
    (fun (dname, d) ->
      List.iter
        (fun (aname, attack) ->
          let cfg = { (cfg ~attack 8) with Multi_sa.keep_trace = true } in
          let seq = Multi_sa.run ~domains:1 d cfg in
          check_bool (dname ^ "/" ^ aname ^ " trace non-empty") true
            (seq.Multi_sa.trace <> []);
          let expected = packet_events seq in
          List.iter
            (fun domains ->
              Alcotest.(check (list string))
                (Printf.sprintf "%s/%s packet-level trace at %d domains" dname
                   aname domains)
                expected
                (packet_events (Multi_sa.run ~domains d cfg)))
            [ 2; 4 ])
        attacks)
    disciplines

(* ------------------------------------------------------------------ *)
(* Properties: keyed PRNG streams and the partition *)

let prop_keyed_stream_is_pure =
  QCheck.Test.make ~name:"Prng.keyed is a pure function of (seed, stream)"
    ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (seed, stream) ->
      let a = Prng.keyed ~seed ~stream in
      let b = Prng.keyed ~seed ~stream in
      List.init 16 (fun _ -> Prng.int a 1000)
      = List.init 16 (fun _ -> Prng.int b 1000))

let prop_keyed_streams_distinct =
  QCheck.Test.make ~name:"distinct streams yield distinct sequences" ~count:200
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, s1, s2) ->
      QCheck.assume (s1 <> s2);
      let a = Prng.keyed ~seed ~stream:s1 in
      let b = Prng.keyed ~seed ~stream:s2 in
      List.init 8 (fun _ -> Prng.int a 1_000_000)
      <> List.init 8 (fun _ -> Prng.int b 1_000_000))

let prop_keyed_independent_of_other_streams =
  (* the sharding property: SA g's stream does not depend on how many
     other streams were derived first, or from where *)
  QCheck.Test.make
    ~name:"keyed stream independent of derivation order (shard-count-proof)"
    ~count:200
    QCheck.(pair small_nat (int_bound 63))
    (fun (seed, g) ->
      let direct = Prng.keyed ~seed ~stream:g in
      let after_others =
        (* derive (and draw from) many other streams first *)
        for s = 0 to 63 do
          if s <> g then ignore (Prng.int (Prng.keyed ~seed ~stream:s) 1000)
        done;
        Prng.keyed ~seed ~stream:g
      in
      List.init 8 (fun _ -> Prng.int direct 1000)
      = List.init 8 (fun _ -> Prng.int after_others 1000))

let prop_partition_tiles =
  QCheck.Test.make ~name:"partition tiles [0,n) contiguously, sizes differ <= 1"
    ~count:500
    QCheck.(pair (int_range 1 500) (int_range 1 500))
    (fun (n, d) ->
      QCheck.assume (d <= n);
      let ranges = Multi_sa.partition ~sa_count:n ~shards:d in
      let sizes = Array.map (fun (lo, hi) -> hi - lo) ranges in
      let min_sz = Array.fold_left min max_int sizes in
      let max_sz = Array.fold_left max 0 sizes in
      Array.length ranges = d
      && fst ranges.(0) = 0
      && snd ranges.(d - 1) = n
      && Array.for_all (fun (lo, hi) -> lo < hi) ranges
      && (let contiguous = ref true in
          for i = 1 to d - 1 do
            if fst ranges.(i) <> snd ranges.(i - 1) then contiguous := false
          done;
          !contiguous)
      && max_sz - min_sz <= 1)

let test_partition_validated () =
  Alcotest.check_raises "shards=0"
    (Invalid_argument "Multi_sa.partition: need 1 <= shards <= sa_count")
    (fun () -> ignore (Multi_sa.partition ~sa_count:4 ~shards:0));
  Alcotest.check_raises "shards>n"
    (Invalid_argument "Multi_sa.partition: need 1 <= shards <= sa_count")
    (fun () -> ignore (Multi_sa.partition ~sa_count:4 ~shards:5))

(* ------------------------------------------------------------------ *)
(* Host recovery ordering *)

let test_host_recovery_sa_order () =
  (* per-SA recovery must visit SAs in ascending sa-index order — the
     order the sharded merge assumes (and the disk serializes) *)
  let o = ref [] in
  let engine = Engine.create () in
  let disk =
    Resets_persist.Sim_disk.create ~latency:(us 100) engine
  in
  let endpoint i =
    Endpoint.create
      ~sender_name:(Printf.sprintf "p%d" i)
      ~receiver_name:(Printf.sprintf "q%d" i)
      ~link_name:(Printf.sprintf "link%d" i)
      ~tap:Endpoint.No_tap
      ~spi:(Int32.of_int (0x4000 + i))
      ~secret:(Printf.sprintf "order-%d" i)
      ~link_latency:(us 10)
      ~traffic:(Resets_workload.Traffic.constant ~gap:(us 100))
      ~metrics:(Metrics.create ())
      ~sender_persistence:None
      ~receiver_persistence:
        (Some
           {
             Receiver.store = Resets_persist.Sim_disk.store disk;
             key = Host.sa_key i;
             policy = K_policy.make (K_policy.static 10);
             robust = false;
             wakeup_buffer = false;
             retries = 3;
           })
      engine
  in
  let endpoints = Array.init 6 endpoint in
  let host = Host.create ~k:10 ~disk ~discipline:Host.Per_sa endpoints engine in
  Array.iter (fun ep -> Endpoint.start ep) endpoints;
  ignore (Engine.schedule_at engine ~at:(ms 5) (fun () -> Host.reset host));
  ignore
    (Engine.schedule_at engine ~at:(ms 6) (fun () ->
         Host.recover host ~on_sa_ready:(fun i -> o := i :: !o) ()));
  ignore (Engine.run ~until:(ms 20) engine);
  Alcotest.(check (list int)) "ascending sa order" [ 0; 1; 2; 3; 4; 5 ]
    (List.rev !o)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "shard"
    [
      ( "determinism",
        [
          Alcotest.test_case "domain-count invariance (3 disciplines x 2 attacks)"
            `Quick test_domain_count_invariance;
          Alcotest.test_case "seeds still matter" `Quick test_seed_changes_outcome;
          Alcotest.test_case "uneven partition" `Quick test_uneven_partition_runs;
          Alcotest.test_case "domains validated" `Quick test_domains_validated;
          Alcotest.test_case "shard failure re-raised" `Quick
            test_shard_failure_reraised;
          Alcotest.test_case "packet-level trace invariant" `Quick
            test_trace_packet_events_domain_invariant;
        ] );
      ( "properties",
        [
          qt prop_keyed_stream_is_pure;
          qt prop_keyed_streams_distinct;
          qt prop_keyed_independent_of_other_streams;
          qt prop_partition_tiles;
          Alcotest.test_case "partition validated" `Quick test_partition_validated;
        ] );
      ( "host+engine",
        [
          Alcotest.test_case "per-sa recovery in sa order" `Quick
            test_host_recovery_sa_order;
        ] );
    ]
