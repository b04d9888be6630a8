(** The daemon's heartbeat JSONL: its per-SA row, written and read.

    The fleet layer's entire view of a daemon is this file: each line
    carries the writer's pid (incarnations tell themselves apart), an
    absolute wall-clock stamp ([ts_ns]), per-SA protocol counters, and
    — on a clean exit — a terminal ["shutdown"] line whose absence
    marks a crash. Convergence after a restart is therefore detectable
    from the file alone, with no channel to the daemon beyond spawning
    it. Unparseable or foreign lines are skipped, not errors: the file
    is append-only across incarnations and may interleave startup
    records with heartbeats. *)

type sa = {
  spi : int;
  recovered : bool;
  recovered_from : int;
  sent : int;
  next_seq : int;
  delivered : int;
  min_seq : int;
  max_seq : int;
  fresh_rejected : int;
  lost : int;
      (** fresh messages rejected and never delivered — the quantity
          the 2k bound covers (wire-duplicated frames excluded). Falls
          back to [fresh_rejected] when the writer predates the
          field. *)
  dups : int;
  bad_icv : int;
  edge : int;
  k_now : int;
}

type line = {
  event : string option;  (** ["startup"] / ["shutdown"] markers *)
  reason : string option;  (** for shutdown: ["sigterm"] / ["duration"] *)
  pid : int;
  ts_ns : int;  (** absolute wall clock, epoch ns *)
  elapsed_ns : int;  (** since this incarnation started *)
  role : string;  (** ["send"] or ["recv"] *)
  sas : sa list;  (** empty on startup lines *)
}

val sa_to_json : sa -> Resets_util.Json.t
(** The row the daemon writes into a heartbeat's ["sas"] list and its
    report's ["per_sa"]; {!parse_line} reads it back field for field. *)

val parse_line : string -> line option
val load : string -> line list
(** All parseable lines, file order. Missing file = []. *)

val of_pid : line list -> pid:int -> line list
(** One incarnation's lines. *)

val last : line list -> line option

val total : (sa -> int) -> line -> int
(** Sum a counter over the line's SAs. *)

val all_delivering : line -> bool
(** Every SA has delivered at least one message. *)

val first_delivering : line list -> line option
(** First regular heartbeat with {!all_delivering} — the convergence
    instant, as seen from the file. *)

val terminal : line list -> line option
(** The ["shutdown"] line, if the incarnation exited cleanly. *)
