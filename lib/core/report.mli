(** Machine-readable run records: the observability layer.

    Every experiment in [bench/main.ml] builds one {!t} and writes it
    as a top-level [BENCH_<id>.json] artifact; [bin/ipsec_resets.ml]'s
    [run --json] emits the same {!result_to_json} record. The schema is
    documented field by field in EXPERIMENTS.md; bump
    {!schema_version} whenever a field changes meaning so trajectory
    diffs across PRs stay honest. *)

val schema_version : int
(** Version 1: the schema introduced with this layer. *)

(** {1 Experiment records} *)

type t
(** A mutable builder for one experiment's record: identity (id /
    title / paper claim), parameters, measured values and pass/fail
    checks against the paper's bounds. *)

val create : id:string -> title:string -> claim:string -> t
(** [id] is the experiment tag ("E1" … "E13", "MICRO"); [claim] quotes
    or paraphrases the paper statement the experiment reproduces. *)

val id : t -> string

val param : t -> string -> Resets_util.Json.t -> unit
(** Record one scenario parameter (seed, Kp, horizon…). Re-recording a
    name overwrites the earlier value. *)

val measure : t -> string -> Resets_util.Json.t -> unit
(** Record one top-level measured value. Re-recording a name
    overwrites. *)

val row : t -> table:string -> (string * Resets_util.Json.t) list -> unit
(** Append one row to the named measured table (serialized as a JSON
    array of objects under [measured.<table>]) — the JSON twin of one
    printed table line. *)

val check : t -> name:string -> ?bound:float -> ?value:float -> bool -> unit
(** Record one pass/fail verdict against a paper bound. [bound] is the
    permitted limit (e.g. 2·Kp), [value] the observed quantity. *)

val pass : t -> bool
(** Conjunction of all recorded checks; [true] when none were
    recorded. *)

val to_json : ?wall_clock_s:float -> ?generator:string -> t -> Resets_util.Json.t
(** The full record. [generator] defaults to ["bench/main.exe"]. *)

val filename : t -> string
(** ["BENCH_<id>.json"]. *)

val write : dir:string -> ?wall_clock_s:float -> ?generator:string -> t -> string
(** Write the pretty-printed record into [dir] and return the path. *)

(** {1 Serializers for the core run types} *)

val metrics_to_json : Metrics.t -> Resets_util.Json.t
(** Every counter of {!Metrics.t} plus recovery/disruption summaries
    (seconds). The paired-run fields ([oracle_delivered],
    [goodput_vs_oracle]) are emitted only when the run was paired, so
    unpaired records — every committed artifact predating the policy
    layer — serialize byte-identically. *)

val verdict_to_json : Convergence.verdict -> Resets_util.Json.t
(** The six Section 5 verdict components plus the conjunction under
    ["holds"]. *)

val result_to_json :
  ?verdict:Convergence.verdict -> Harness.result -> Resets_util.Json.t
(** One harness run: metrics, endpoint/save/link/adversary counters,
    effective K per side, end time, and (when given) the convergence
    verdict — the record [ipsec_resets run --json] prints. *)

val degradation_to_json :
  ?verdict:Convergence.verdict -> Harness.degradation -> Resets_util.Json.t
(** One paired run ([record = "paired_run"]): the goodput ratio and
    convergence-time deltas, plus the full primary and oracle run
    records. [verdict] (of the primary run) lands inside [primary]. *)
