(** Values of the Abstract Protocol Notation interpreter.

    The paper specifies its protocols in Gouda's Abstract Protocol
    Notation (APN): processes with constants, variables and guarded
    actions. Variables range over integers, booleans and boolean
    arrays (the anti-replay window [wdw] is [array \[1..w\] of
    boolean]). *)

type t =
  | Int of int
  | Bool of bool
  | Bool_array of bool array

exception Type_error of string

val of_int : int -> t
(** [Int i], shared for small [i]: every [of_int 3] is the same box,
    so storing an int a slot already holds changes nothing
    physically. *)

val int : t -> int
(** @raise Type_error if not an [Int]. *)

val bool : t -> bool
val bool_array : t -> bool array

val equal : t -> t -> bool
val compare : t -> t -> int

val canonical : t -> t
(** A deep copy safe to store in snapshots (arrays are copied). *)

val pp : Format.formatter -> t -> unit
