(** A process's variable store. *)

type t

val create : (string * Value.t) list -> t
(** @raise Invalid_argument on duplicate names. *)

val get : t -> string -> Value.t
(** @raise Not_found when the variable does not exist. *)

val set : t -> string -> Value.t -> unit
(** @raise Not_found when the variable was never declared (APN
    variables are declared up front). *)

val get_int : t -> string -> int
val set_int : t -> string -> int -> unit
val get_bool : t -> string -> bool
val set_bool : t -> string -> bool -> unit
val get_bool_array : t -> string -> bool array
(** The live array — mutating it mutates the state. *)

val snapshot : t -> (string * Value.t) list
(** Sorted by name, deep-copied. *)

type var
(** One variable of one state: reads and writes through it need no
    name lookup. *)

val vars : t -> var array
(** The state's variables in name order. *)

val read : var -> Value.t
val write : var -> Value.t -> unit
(** [write] stores the value as given (no copy). *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
