open Resets_util

let schema_version = 1

type check = {
  name : string;
  bound : float option;
  value : float option;
  ok : bool;
}

type t = {
  id : string;
  title : string;
  claim : string;
  mutable params : (string * Json.t) list;  (* reversed *)
  mutable measured : (string * Json.t) list;  (* reversed *)
  tables : (string, Json.t list ref) Hashtbl.t;
  mutable table_order : string list;  (* reversed *)
  mutable checks : check list;  (* reversed *)
}

let create ~id ~title ~claim =
  {
    id;
    title;
    claim;
    params = [];
    measured = [];
    tables = Hashtbl.create 8;
    table_order = [];
    checks = [];
  }

let id t = t.id

let set_assoc assoc name v = (name, v) :: List.remove_assoc name assoc

let param t name v = t.params <- set_assoc t.params name v

let measure t name v = t.measured <- set_assoc t.measured name v

let row t ~table fields =
  let rows =
    match Hashtbl.find_opt t.tables table with
    | Some rows -> rows
    | None ->
      let rows = ref [] in
      Hashtbl.add t.tables table rows;
      t.table_order <- table :: t.table_order;
      rows
  in
  rows := Json.Obj fields :: !rows

let check t ~name ?bound ?value ok = t.checks <- { name; bound; value; ok } :: t.checks

let failed t =
  List.rev (List.filter_map (fun c -> if c.ok then None else Some c.name) t.checks)

let pass t = failed t = []

let check_to_json c =
  let opt name v rest =
    match v with Some f -> (name, Json.Float f) :: rest | None -> rest
  in
  Json.Obj
    (("name", Json.String c.name)
    :: opt "bound" c.bound (opt "value" c.value [ ("pass", Json.Bool c.ok) ]))

let to_json ?wall_clock_s ?(generator = "bench/main.exe") t =
  let tables =
    List.rev_map
      (fun name ->
        (name, Json.List (List.rev !(Hashtbl.find t.tables name))))
      t.table_order
  in
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("generator", Json.String generator);
      ("experiment", Json.String t.id);
      ("title", Json.String t.title);
      ("claim", Json.String t.claim);
      ("parameters", Json.Obj (List.rev t.params));
      ("measured", Json.Obj (List.rev t.measured @ tables));
      ("checks", Json.List (List.rev_map check_to_json t.checks));
      ("pass", Json.Bool (pass t));
      ( "wall_clock_s",
        match wall_clock_s with Some s -> Json.Float s | None -> Json.Null );
    ]

let filename t = Printf.sprintf "BENCH_%s.json" t.id

let write ~dir ?wall_clock_s ?generator t =
  let path = Filename.concat dir (filename t) in
  Json.write_file path (to_json ?wall_clock_s ?generator t);
  path

(* ------------------------------------------------------------------ *)
(* Serializers *)

let sample_to_json s =
  let n = Stats.Sample.count s in
  if n = 0 then Json.Obj [ ("count", Json.Int 0) ]
  else
    Json.Obj
      [
        ("count", Json.Int n);
        ("mean", Json.Float (Stats.Sample.mean s));
        ("p50", Json.Float (Stats.Sample.percentile s 50.));
        ("p90", Json.Float (Stats.Sample.percentile s 90.));
        ("p99", Json.Float (Stats.Sample.percentile s 99.));
        ("min", Json.Float (Stats.Sample.percentile s 0.));
        ("max", Json.Float (Stats.Sample.percentile s 100.));
      ]

let metrics_to_json (m : Metrics.t) =
  Json.Obj
    ([
      ("sent", Json.Int m.Metrics.sent);
      ("delivered", Json.Int m.Metrics.delivered);
      ("delivered_distinct", Json.Int (Metrics.delivered_distinct m));
      ("max_delivered_seq", Json.Int (Metrics.max_delivered_seq m));
      ("skipped_seqnos", Json.Int m.Metrics.skipped_seqnos);
      ("reused_seqnos", Json.Int m.Metrics.reused_seqnos);
      ("arrived_fresh", Json.Int m.Metrics.arrived_fresh);
      ("arrived_replayed", Json.Int m.Metrics.arrived_replayed);
      ("duplicate_deliveries", Json.Int m.Metrics.duplicate_deliveries);
      ("replay_accepted", Json.Int m.Metrics.replay_accepted);
      ("replay_rejected", Json.Int m.Metrics.replay_rejected);
      ("fresh_rejected", Json.Int m.Metrics.fresh_rejected);
      ("fresh_rejected_undelivered", Json.Int m.Metrics.fresh_rejected_undelivered);
      ("bad_icv", Json.Int m.Metrics.bad_icv);
      ("dropped_host_down", Json.Int m.Metrics.dropped_host_down);
      ("buffered_during_wakeup", Json.Int m.Metrics.buffered_during_wakeup);
      ("p_resets", Json.Int m.Metrics.p_resets);
      ("q_resets", Json.Int m.Metrics.q_resets);
      ("save_failures", Json.Int m.Metrics.save_failures);
      ("save_retries", Json.Int m.Metrics.save_retries);
      ("fetch_failures", Json.Int m.Metrics.fetch_failures);
      ("sends_stalled", Json.Int m.Metrics.sends_stalled);
      ("degraded_reestablish", Json.Int m.Metrics.degraded_reestablish);
      ("max_displacement", Json.Int m.Metrics.max_displacement);
      ("recovery_times_s", sample_to_json m.Metrics.recovery_times);
      ("disruption_times_s", sample_to_json m.Metrics.disruption_times);
    ]
    (* Paired-run fields appear only when an oracle twin was actually
       run: every pre-existing (unpaired) artifact stays byte-identical. *)
    @
    if m.Metrics.oracle_delivered = 0 then []
    else
      [
        ("oracle_delivered", Json.Int m.Metrics.oracle_delivered);
        ("goodput_vs_oracle", Json.Float m.Metrics.goodput_vs_oracle);
      ])

let verdict_to_json (v : Convergence.verdict) =
  Json.Obj
    [
      ("no_replay_accepted", Json.Bool v.Convergence.no_replay_accepted);
      ("no_duplicate_delivery", Json.Bool v.Convergence.no_duplicate_delivery);
      ("no_seqno_reuse", Json.Bool v.Convergence.no_seqno_reuse);
      ("skipped_within_bound", Json.Bool v.Convergence.skipped_within_bound);
      ("discards_within_bound", Json.Bool v.Convergence.discards_within_bound);
      ("delivery_resumed", Json.Bool v.Convergence.delivery_resumed);
      ("holds", Json.Bool (Convergence.holds v));
    ]

let result_to_json ?verdict (r : Harness.result) =
  let verdict_field =
    match verdict with
    | Some v -> [ ("verdict", verdict_to_json v) ]
    | None -> []
  in
  Json.Obj
    ([
       ("schema_version", Json.Int schema_version);
       ("record", Json.String "harness_run");
       ("metrics", metrics_to_json r.Harness.metrics);
       ("sender_next_seq", Json.Int r.Harness.sender_next_seq);
       ("receiver_edge", Json.Int r.Harness.receiver_edge);
       ("saves_completed_p", Json.Int r.Harness.saves_completed_p);
       ("saves_completed_q", Json.Int r.Harness.saves_completed_q);
       ("saves_lost_p", Json.Int r.Harness.saves_lost_p);
       ("saves_lost_q", Json.Int r.Harness.saves_lost_q);
       ("saves_failed_p", Json.Int r.Harness.saves_failed_p);
       ("saves_failed_q", Json.Int r.Harness.saves_failed_q);
       ("fetches_corrupt_p", Json.Int r.Harness.fetches_corrupt_p);
       ("fetches_corrupt_q", Json.Int r.Harness.fetches_corrupt_q);
       ("link_sent", Json.Int r.Harness.link_sent);
       ("link_delivered", Json.Int r.Harness.link_delivered);
       ("link_dropped", Json.Int r.Harness.link_dropped);
       ("link_duplicated", Json.Int r.Harness.link_duplicated);
       ("link_reordered", Json.Int r.Harness.link_reordered);
       ("adversary_injected", Json.Int r.Harness.adversary_injected);
       ("effective_k_p", Json.Int r.Harness.effective_k_p);
       ("effective_k_q", Json.Int r.Harness.effective_k_q);
       ("k_adjustments_p", Json.Int r.Harness.k_adjustments_p);
       ("k_adjustments_q", Json.Int r.Harness.k_adjustments_q);
       ( "violations",
         Json.List
           (List.map Invariant.violation_to_json r.Harness.violations) );
       ( "end_time_ns",
         Json.Int (Int64.to_int (Resets_sim.Time.to_ns r.Harness.end_time)) );
     ]
    @ verdict_field)

let degradation_to_json ?verdict (d : Harness.degradation) =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("record", Json.String "paired_run");
      ("goodput_ratio", Json.Float d.Harness.goodput_ratio);
      ("disruption_delta_s", Json.Float d.Harness.disruption_delta_s);
      ("recovery_delta_s", Json.Float d.Harness.recovery_delta_s);
      ("primary", result_to_json ?verdict d.Harness.primary);
      ("oracle", result_to_json d.Harness.oracle);
    ]
