open Resets_util

module Int_tbl = Hashtbl.Make (Int)

(* The delivery ledger. The current epoch's delivered numbers are bits
   in 512-number pages (64 bytes each) keyed by [seq asr page_bits]; a
   number delivered twice or more keeps its count in [repeats]. Only
   the current epoch is ever queried, so [bump_epoch] drops its pages
   and keeps the running [distinct] count. *)
let page_bits = 9
let page_mask = (1 lsl page_bits) - 1

type ledger = {
  pages : Bytes.t Int_tbl.t;
  mutable last_key : int;  (* the page looked up last, cached *)
  mutable last_page : Bytes.t;  (* [Bytes.empty] when none is cached *)
  repeats : int Int_tbl.t;  (* delivery count of numbers delivered >= 2 times *)
  mutable distinct : int;  (* distinct (epoch, seq) pairs, all epochs *)
}

(* [min_int] is no page key: keys are [seq asr page_bits]. *)
let no_page = min_int

let ledger_create () =
  {
    pages = Int_tbl.create 1;
    last_key = no_page;
    last_page = Bytes.empty;
    repeats = Int_tbl.create 1;
    distinct = 0;
  }

let forget_epoch l =
  Int_tbl.reset l.pages;
  Int_tbl.reset l.repeats;
  l.last_key <- no_page;
  l.last_page <- Bytes.empty

(* The page holding [seq]; [Bytes.empty] when there is none and
   [create] is false. *)
let page l ~seq ~create =
  let key = seq asr page_bits in
  if key = l.last_key then l.last_page
  else
    let page =
      match Int_tbl.find l.pages key with
      | page -> page
      | exception Not_found ->
        if create then begin
          let page = Bytes.make ((page_mask + 1) / 8) '\000' in
          Int_tbl.add l.pages key page;
          page
        end
        else Bytes.empty
    in
    if Bytes.length page > 0 then begin
      l.last_key <- key;
      l.last_page <- page
    end;
    page

let bit_set page seq =
  let bit = seq land page_mask in
  Char.code (Bytes.unsafe_get page (bit lsr 3)) land (1 lsl (bit land 7)) <> 0

let set_bit page seq =
  let bit = seq land page_mask in
  let byte = bit lsr 3 in
  Bytes.unsafe_set page byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get page byte) lor (1 lsl (bit land 7))))

(* The count of a number whose bit is set. *)
let repeat_count l seq =
  match Int_tbl.find l.repeats seq with n -> n | exception Not_found -> 1

let ledger_count l ~seq =
  let page = page l ~seq ~create:false in
  if Bytes.length page = 0 || not (bit_set page seq) then 0 else repeat_count l seq

(* Count one delivery of [seq]; returns how often it was delivered
   before. *)
let ledger_add l ~seq =
  let page = page l ~seq ~create:true in
  if not (bit_set page seq) then begin
    set_bit page seq;
    l.distinct <- l.distinct + 1;
    0
  end
  else begin
    let previous = repeat_count l seq in
    Int_tbl.replace l.repeats seq (previous + 1);
    previous
  end

type t = {
  mutable sent : int;
  mutable skipped_seqnos : int;
  mutable reused_seqnos : int;
  mutable arrived_fresh : int;
  mutable arrived_replayed : int;
  mutable delivered : int;
  mutable duplicate_deliveries : int;
  mutable replay_accepted : int;
  mutable replay_rejected : int;
  mutable fresh_rejected : int;
  mutable fresh_rejected_undelivered : int;
  mutable bad_icv : int;
  mutable dropped_host_down : int;
  mutable buffered_during_wakeup : int;
  mutable p_resets : int;
  mutable q_resets : int;
  mutable save_failures : int;
  mutable save_retries : int;
  mutable fetch_failures : int;
  mutable sends_stalled : int;
  mutable degraded_reestablish : int;
  recovery_times : Stats.Sample.s;
  disruption_times : Stats.Sample.s;
  deliveries : ledger;
  mutable max_delivered : int;
  mutable epoch : int;
  mutable max_displacement : int;
  mutable oracle_delivered : int;
  mutable goodput_vs_oracle : float;
}

let create () =
  {
    sent = 0;
    skipped_seqnos = 0;
    reused_seqnos = 0;
    arrived_fresh = 0;
    arrived_replayed = 0;
    delivered = 0;
    duplicate_deliveries = 0;
    replay_accepted = 0;
    replay_rejected = 0;
    fresh_rejected = 0;
    fresh_rejected_undelivered = 0;
    bad_icv = 0;
    dropped_host_down = 0;
    buffered_during_wakeup = 0;
    p_resets = 0;
    q_resets = 0;
    save_failures = 0;
    save_retries = 0;
    fetch_failures = 0;
    sends_stalled = 0;
    degraded_reestablish = 0;
    recovery_times = Stats.Sample.create ();
    disruption_times = Stats.Sample.create ();
    deliveries = ledger_create ();
    max_delivered = 0;
    epoch = 0;
    max_displacement = 0;
    oracle_delivered = 0;
    goodput_vs_oracle = 1.;
  }

let bump_epoch t =
  t.epoch <- t.epoch + 1;
  forget_epoch t.deliveries

let delivery_count t ~seq = ledger_count t.deliveries ~seq

let record_delivery t ~seq ~replayed =
  let previous = ledger_add t.deliveries ~seq in
  t.delivered <- t.delivered + 1;
  if previous > 0 then t.duplicate_deliveries <- t.duplicate_deliveries + 1;
  if seq > t.max_delivered then t.max_delivered <- seq;
  if replayed then t.replay_accepted <- t.replay_accepted + 1

let record_rejection t ~seq ~replayed =
  if replayed then t.replay_rejected <- t.replay_rejected + 1
  else begin
    t.fresh_rejected <- t.fresh_rejected + 1;
    if delivery_count t ~seq = 0 then
      t.fresh_rejected_undelivered <- t.fresh_rejected_undelivered + 1
  end

let absorb ~into src =
  into.sent <- into.sent + src.sent;
  into.skipped_seqnos <- into.skipped_seqnos + src.skipped_seqnos;
  into.reused_seqnos <- into.reused_seqnos + src.reused_seqnos;
  into.arrived_fresh <- into.arrived_fresh + src.arrived_fresh;
  into.arrived_replayed <- into.arrived_replayed + src.arrived_replayed;
  into.delivered <- into.delivered + src.delivered;
  into.duplicate_deliveries <-
    into.duplicate_deliveries + src.duplicate_deliveries;
  into.replay_accepted <- into.replay_accepted + src.replay_accepted;
  into.replay_rejected <- into.replay_rejected + src.replay_rejected;
  into.fresh_rejected <- into.fresh_rejected + src.fresh_rejected;
  into.fresh_rejected_undelivered <-
    into.fresh_rejected_undelivered + src.fresh_rejected_undelivered;
  into.bad_icv <- into.bad_icv + src.bad_icv;
  into.dropped_host_down <- into.dropped_host_down + src.dropped_host_down;
  into.buffered_during_wakeup <-
    into.buffered_during_wakeup + src.buffered_during_wakeup;
  into.p_resets <- into.p_resets + src.p_resets;
  into.q_resets <- into.q_resets + src.q_resets;
  into.save_failures <- into.save_failures + src.save_failures;
  into.save_retries <- into.save_retries + src.save_retries;
  into.fetch_failures <- into.fetch_failures + src.fetch_failures;
  into.sends_stalled <- into.sends_stalled + src.sends_stalled;
  into.degraded_reestablish <-
    into.degraded_reestablish + src.degraded_reestablish;
  if src.max_delivered > into.max_delivered then
    into.max_delivered <- src.max_delivered;
  if src.max_displacement > into.max_displacement then
    into.max_displacement <- src.max_displacement;
  into.oracle_delivered <- into.oracle_delivered + src.oracle_delivered;
  if into.oracle_delivered > 0 then
    (* distinct = delivered − duplicates; the delivery ledger is not
       merged, so compute it from the scalar counters *)
    into.goodput_vs_oracle <-
      float_of_int (into.delivered - into.duplicate_deliveries)
      /. float_of_int into.oracle_delivered

let delivered_distinct t = t.deliveries.distinct

let max_delivered_seq t = t.max_delivered

let pp_summary ppf t =
  Format.fprintf ppf
    "sent=%d delivered=%d (distinct %d) skipped=%d reused=%d fresh_rejected=%d \
     (undelivered %d) replay_accepted=%d replay_rejected=%d dup_deliveries=%d \
     bad_icv=%d down_drops=%d resets(p=%d,q=%d)"
    t.sent t.delivered (delivered_distinct t) t.skipped_seqnos t.reused_seqnos
    t.fresh_rejected t.fresh_rejected_undelivered t.replay_accepted t.replay_rejected
    t.duplicate_deliveries t.bad_icv t.dropped_host_down t.p_resets t.q_resets;
  if
    t.save_failures + t.fetch_failures + t.sends_stalled + t.degraded_reestablish
    > 0
  then
    Format.fprintf ppf
      " faults(save_fail=%d retries=%d fetch_fail=%d stalled=%d degraded=%d)"
      t.save_failures t.save_retries t.fetch_failures t.sends_stalled
      t.degraded_reestablish
