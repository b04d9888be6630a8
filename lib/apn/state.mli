(** A process's variable store: one value per variable, in slots
    ordered by name.

    A {!layout} fixes the slots: the variables' names in name order and
    an index from name to slot. States share their layout, so a compiled
    process builds its layout once ({!Interp.compile}) and each of its
    states is only an array of values.

    A state may hold scratch slots past its variables: a compiled
    process keeps its constants and its actions' locals there. The
    layout names no scratch slot, and no snapshot holds one. *)

type layout

val layout : string list -> layout
(** @raise Invalid_argument on duplicate names. *)

val slot : layout -> string -> int
(** @raise Not_found for a name the layout does not hold. *)

type t

val create : (string * Value.t) list -> t
(** A state with a layout of its own and no scratch.
    @raise Invalid_argument on duplicate names. *)

val of_slots : layout -> Value.t array -> t
(** A state holding [values] (as given: not copied): first one per
    variable of [layout], in slot order, then the scratch. *)

val slots : t -> Value.t array
(** The live values, scratch included: writing an element writes the
    state. *)

val length : t -> int
(** The number of variables: the slots before the scratch. *)

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
(** The variables, sorted by name, deep-copied. *)

val copy : t -> t
(** Same layout, values (scratch included) deep-copied. *)

val pp : Format.formatter -> t -> unit
