(** Structured event trace.

    Components record what happened (sends, receives, discards, SAVEs,
    resets…); tests and the CLI read the trace back. Bounded by a ring
    so long simulations do not grow without bound. *)

(** Severity: [Debug] for per-packet chatter, [Info] for protocol
    milestones, [Warn] for faults and violations. *)
type level = Debug | Info | Warn

type entry = {
  time : Time.t;  (** simulated instant of the event *)
  level : level;
  source : string;  (** component, e.g. "p", "q", "disk.p" *)
  event : string;  (** short machine-readable tag, e.g. "save.begin" *)
  detail : string;  (** free-form human-readable context *)
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 65536 entries. Storage grows with use up to that
    bound (see {!Resets_util.Ring.create}). *)

val record :
  t -> time:Time.t -> ?level:level -> source:string -> event:string -> string -> unit
(** [record t ~time ~source ~event detail] appends one entry
    ([level] defaults to [Info]). *)

val entries : t -> entry list
(** Oldest first (up to capacity). *)

val count : t -> int
(** Total recorded, including entries already evicted from the ring. *)

val find : t -> event:string -> entry list
(** Retained entries whose [event] tag matches exactly. *)

val dump : Format.formatter -> t -> unit
(** Every retained entry, oldest first, one line each: bracketed time,
    level, source, event, detail. *)

(** {1 JSONL export}

    One JSON object per line — the machine-readable twin of {!dump},
    written by the CLI's [--trace-out FILE]. Fields: [t_ns] (simulated
    nanoseconds), [level], [source], [event], [detail]. *)

val dump_jsonl : out_channel -> entry list -> unit
(** Write the entries in list order, one JSON line each: a trace's
    retained entries ({!entries}) or a merged multi-SA trace. *)
