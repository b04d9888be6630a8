(** Minimal JSON tree, emitter and parser — no external dependencies.

    The observability layer (BENCH_*.json artifacts, JSONL traces, CLI
    [--json] records) serializes through this module so artifacts stay
    diffable and machine-checkable without adding a library the
    container may not have. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** {1 Emitting} *)

val to_string : t -> string
(** Compact, single-line rendering. Strings are escaped per RFC 8259
    (["\""], ["\\"], control characters as [\uXXXX]). Finite floats
    render so that {!parse} recovers them bit-exactly; non-finite
    floats (which JSON cannot represent) render as [null]. *)

val to_string_pretty : t -> string
(** Two-space-indented rendering — the format of the committed
    [BENCH_*.json] artifacts, chosen so [git diff] shows which field
    moved. *)

val pp : Format.formatter -> t -> unit
(** [pp] prints {!to_string_pretty} output. *)

val write_file : string -> t -> unit
(** Pretty-print to a file with a trailing newline. Overwrites. *)

val float_to_string : float -> string
(** The shortest decimal rendering, of ["%.15g"] and ["%.17g"], that
    [float_of_string] reads back to the same finite float: how JSON
    numbers are printed, without the [".0"] they are forced to carry,
    and how the wire and store fault grammars print probabilities. *)

(** {1 Parsing} *)

val parse : string -> (t, string) result
(** Strict recursive-descent parser for the subset {!to_string} emits
    plus standard JSON ([\uXXXX] escapes are decoded to UTF-8; numbers
    without [.], [e] or [E] that fit an OCaml [int] parse as {!Int},
    all others as {!Float}). The error string carries a byte offset. *)

val parse_exn : string -> t
(** @raise Invalid_argument on a parse error. *)

(** {1 Accessors (for tests and the CLI)} *)

val member : string -> t -> t option
(** First binding of the key in an {!Obj}; [None] otherwise. *)

val index : int -> t -> t option
(** [i]-th element of a {!List}; [None] otherwise. *)

val as_string : t -> string option

val as_int : t -> int option

val as_float : t -> float option
(** {!Int} values are accepted and converted. *)

val as_bool : t -> bool option

val as_list : t -> t list option

val equal : t -> t -> bool
(** Structural equality; object key order is significant. *)

val diff : ?ignore:string list -> t -> t -> string option
(** The path of the first place where the two trees differ, e.g.
    ["measured.sweep[3].skipped_seqnos"] ([""] is the root), or [None]
    when they are equal. Keys named in [ignore] are dropped from every
    object, at any depth, before the comparison. Otherwise it is as
    strict as {!equal}: key order counts, and [Int 1] differs from
    [Float 1.0]. Lists of different lengths differ at the list's own
    path. *)
