(** Simulated time.

    Time is an integer count of nanoseconds since the start of the
    simulation. Integer time keeps event ordering exact and runs
    reproducible; all public constructors convert into it. The
    {!Engine}'s timer wheel additionally relies on values fitting a
    native [int] (62 payload bits, ~146 simulated years) — see
    DESIGN.md §2e. *)

type t = private int64

val zero : t
(** The start of the simulation. *)

val of_ns : int64 -> t
(** @raise Invalid_argument on negative input. *)

val of_us : int -> t
(** [of_us n] is [n] microseconds.
    @raise Invalid_argument on negative input. *)

val of_ms : int -> t
(** [of_ms n] is [n] milliseconds.
    @raise Invalid_argument on negative input. *)

val of_sec : float -> t
(** Rounds to the nearest nanosecond.
    @raise Invalid_argument on negative or non-finite input. *)

val to_ns : t -> int64
(** Exact. *)

val to_us : t -> float
(** Nanosecond count divided by 10{^3}; fractional below 1 µs. *)

val to_sec : t -> float
(** Nanosecond count divided by 10{^9}. *)

val add : t -> t -> t
(** Saturation-free integer addition (overflow is out of range for
    any simulated horizon). *)

val diff : t -> t -> t
(** [diff a b] is [a - b]. @raise Invalid_argument if [b > a]. *)

val mul : t -> int -> t
(** [mul t n] is [t] repeated [n] times (e.g. a flush period from a
    per-message gap and a count). *)

val compare : t -> t -> int
(** Standard total order; usable as an [OrderedType]. *)

val equal : t -> t -> bool
(** [equal a b] is [compare a b = 0]. *)

val ( <= ) : t -> t -> bool
(** Infix comparison for deadline checks. *)

val ( < ) : t -> t -> bool
(** Strict infix comparison. *)

val min : t -> t -> t
(** Earlier of the two instants. *)

val max : t -> t -> t
(** Later of the two instants. *)

val pp : Format.formatter -> t -> unit
(** Human-readable with an adaptive unit (ns/µs/ms/s). *)

val duration_to_string : t -> string
(** ["1.25 ms"]-style rendering: the largest unit (s/ms/us/ns) that
    keeps the value at least 1, at most three decimals, trailing
    zeros trimmed. Every produced string is accepted by
    {!duration_of_string}. *)

val duration_of_string : string -> t option
(** Parse ["512 ns"], ["1.25ms"], ["2 s"] … (case-insensitive unit,
    optional space). [None] on malformed input, unknown units, or
    negative values. Rounds to the nearest nanosecond. *)
