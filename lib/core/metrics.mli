(** Experiment counters, shared by sender, receiver and harness.

    Metric definitions (used throughout EXPERIMENTS.md):

    - {e sent}: fresh messages p put on the wire;
    - {e skipped sequence numbers}: numbers rendered unusable by a
      wakeup leap (the paper's "lost sequence numbers", bounded by
      2·Kp);
    - {e reused sequence numbers}: numbers used twice by the sender
      (only the Volatile baseline does this);
    - {e fresh rejected}: arrivals that were not adversary injections
      but were discarded (stale or marked duplicate). With a loss- and
      duplication-free link this equals the paper's "discarded fresh
      messages" (bounded by 2·Kq after a receiver reset);
    - {e replay accepted}: adversary-injected packets that the receiver
      delivered — the paper's headline guarantee is that this stays 0
      under SAVE/FETCH;
    - {e duplicate deliveries}: a sequence number delivered twice
      (Discrimination violations observed from outside). *)

type ledger
(** Which sequence numbers the current epoch delivered, and how often:
    one bit per number in 512-number pages (64 bytes each), plus a
    small table of the counts of numbers delivered twice or more. A
    page and its table entry take 14 words, so a dense stream costs
    under two bits per delivered number and an isolated number 112
    bytes. An epoch before the current one keeps only its
    distinct-delivery count (see {!bump_epoch}). *)

type t = {
  mutable sent : int;  (** fresh messages p put on the wire *)
  mutable skipped_seqnos : int;
      (** sequence numbers rendered unusable by wakeup leaps — the
          paper's Theorem (i) bounds this by 2·Kp per sender reset *)
  mutable reused_seqnos : int;
      (** sequence numbers used twice by the sender; 0 under SAVE/FETCH
          with K ≥ k_min, positive only for unsound baselines *)
  mutable arrived_fresh : int;  (** non-injected packets reaching q *)
  mutable arrived_replayed : int;
      (** adversary-injected packets reaching q *)
  mutable delivered : int;  (** packets q's window accepted *)
  mutable duplicate_deliveries : int;
      (** a (epoch, seq) pair delivered more than once — each is a
          Discrimination violation *)
  mutable replay_accepted : int;
      (** injected packets delivered; the Section 3 attacks succeed iff
          this is positive — SAVE/FETCH keeps it 0 *)
  mutable replay_rejected : int;  (** injected packets discarded *)
  mutable fresh_rejected : int;
      (** non-injected arrivals discarded (stale or marked duplicate);
          with a clean link this is the paper's "discarded fresh
          messages", ≤ 2·Kq per receiver reset (Theorem (ii)) *)
  mutable fresh_rejected_undelivered : int;
      (** fresh rejections whose sequence number had not been delivered
          by any copy at rejection time (true discards) *)
  mutable bad_icv : int;  (** integrity-check failures (wrong key) *)
  mutable dropped_host_down : int;
      (** packets that arrived while the host was down (reset
          downtime) and were lost *)
  mutable buffered_during_wakeup : int;
      (** packets queued while a FETCH/SAVE wakeup was in progress *)
  mutable p_resets : int;  (** sender resets injected *)
  mutable q_resets : int;  (** receiver resets injected *)
  mutable save_failures : int;
      (** SAVEs the store reported failed (transient write faults and
          torn snapshots observed by an endpoint) *)
  mutable save_retries : int;
      (** recovery FETCH/SAVE attempts re-issued after a failure *)
  mutable fetch_failures : int;
      (** checked FETCHes that came back corrupt or stale *)
  mutable sends_stalled : int;
      (** send opportunities the sender declined because its durable
          counter lagged more than the leap behind (failing SAVEs) *)
  mutable degraded_reestablish : int;
      (** SAs that exhausted the retry budget and fell back to IKE
          re-establishment instead of trusting the store *)
  recovery_times : Resets_util.Stats.Sample.s;
      (** reset → endpoint ready again, seconds *)
  disruption_times : Resets_util.Stats.Sample.s;
      (** reset → first delivery after, seconds *)
  deliveries : ledger;
      (** delivery count per sequence number of the current SA epoch —
          duplicate detection; read it through {!delivery_count} and
          {!delivered_distinct} *)
  mutable max_delivered : int;
  mutable epoch : int;
  mutable max_displacement : int;
      (** largest (right edge − sequence number) over accepted
          arrivals: the worst reorder the window absorbed *)
  mutable oracle_delivered : int;
      (** distinct deliveries of this run's attack-free oracle twin
          (see [Harness.run_paired]); 0 = unpaired run *)
  mutable goodput_vs_oracle : float;
      (** distinct deliveries ÷ [oracle_delivered] — the paired-run
          goodput-degradation ratio; 1.0 for unpaired runs *)
}

val create : unit -> t
(** All counters zero, empty samples, epoch 0. *)

val bump_epoch : t -> unit
(** A new SA was installed: its sequence-number space is distinct. The
    ledger drops the old epoch's pages and keeps only its count of
    distinct deliveries: {!delivery_count} asks about the current
    epoch only. *)

val record_delivery : t -> seq:int -> replayed:bool -> unit
(** Updates delivered / duplicate / replay-accepted counters and the
    delivery ledger. *)

val record_rejection : t -> seq:int -> replayed:bool -> unit
(** Updates the rejection counters ([replay_rejected] or
    [fresh_rejected], and [fresh_rejected_undelivered] when no copy of
    [seq] had been delivered). *)

val delivery_count : t -> seq:int -> int
(** How many times a given sequence number was delivered in the
    current epoch. *)

val absorb : into:t -> t -> unit
(** Add [src]'s scalar counters into [into] and take the max of the
    high-water marks — aggregation over per-endpoint metrics in
    multi-SA runs. The delivery ledger and the timing samples are
    {e not} merged: distinct SAs' sequence spaces overlap, so a merged
    ledger would manufacture false duplicates. *)

val delivered_distinct : t -> int
(** Distinct (epoch, sequence-number) pairs delivered over all epochs —
    [delivered] minus duplicates. *)

val max_delivered_seq : t -> int
(** 0 when nothing was delivered. *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable counter dump, as printed by the CLI after a run.
    The machine-readable twin is [Report.metrics_to_json]. *)
