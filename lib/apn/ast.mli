(** Abstract syntax for the Abstract Protocol Notation.

    The paper specifies its protocols in Gouda's notation: processes
    with constants, variables and guarded actions whose statements are
    [skip], simultaneous assignment, [send], [if … fi] selection and
    [do … od] iteration. This module represents that notation as data,
    so the paper's figures can be written down {e verbatim}, rendered
    back in the paper's concrete syntax ({!Pp}) and executed
    ({!Interp.compile} into a {!Process.t}).

    A variable is one of three sorts. A protocol variable is state, as
    the paper declares it. A ghost (history) variable is state too, used
    only by the verification harness; it is marked so the printer can
    set it apart from the protocol proper. A {e local} is the paper's
    scratch variable, such as q's received number [s] and its loop
    indices [i] and [j]: it is dead between actions, so it is not state.
    Every action starts with its locals at their initial values, a
    guard may not read one, and no snapshot holds one.

    A process is compiled once ({!Interp.compile}) and instantiated per
    build with its constants' values and initial values
    ({!Interp.instantiate}). *)

type expr =
  | Int_lit of int
  | Bool_lit of bool
  | Var of string  (** variable or constant *)
  | Index of string * expr  (** [wdw\[e\]] *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Le of expr * expr
  | Lt of expr * expr
  | Ge of expr * expr
  | Gt of expr * expr
  | Eq of expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr

type lhs =
  | Lvar of string
  | Lindex of string * expr

type stmt =
  | Skip
  | Assign of lhs list * expr list
      (** simultaneous, like the paper's [wdw\[j\], j := false, j + 1] *)
  | Send of { dst : string; tag : string; args : expr list }
  | If of (expr * stmt) list  (** [if g1 → s1 \[\] g2 → s2 fi] *)
  | Do of (expr * stmt) list  (** [do g → s od] *)
  | Seq of stmt list

type var_decl = {
  var_name : string;
  init : Value.t;
  comment : string option;  (** the paper's [{…}] annotations *)
  ghost : bool;  (** instrumentation, not protocol state *)
  local : bool;  (** scratch, not state: reset at every action *)
}

type action =
  | Guarded of { label : string; guard : expr; body : stmt }
  | Receive of {
      label : string;
      from_ : string;
      tag : string;
      binder : string;  (** the message argument's name, e.g. [s] *)
      guard : expr;  (** [Bool_lit true] for the paper's actions *)
      body : stmt;
    }

type process = {
  name : string;
  consts : (string * int) list;
  vars : var_decl list;
  actions : action list;
}

(** {1 Construction helpers} *)

val var : string -> expr
val int : int -> expr
val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( <=: ) : expr -> expr -> expr
val ( <: ) : expr -> expr -> expr
val ( >=: ) : expr -> expr -> expr
val ( >: ) : expr -> expr -> expr
val ( =: ) : expr -> expr -> expr
val ( &&: ) : expr -> expr -> expr
val not_ : expr -> expr
val assign : string -> expr -> stmt
val assign_many : (lhs * expr) list -> stmt
val seq : stmt list -> stmt

val plain_var : ?comment:string -> string -> Value.t -> var_decl
val ghost_var : ?comment:string -> string -> Value.t -> var_decl
val local_var : ?comment:string -> string -> Value.t -> var_decl
