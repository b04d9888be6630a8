type expr =
  | Int_lit of int
  | Bool_lit of bool
  | Var of string
  | Index of string * expr
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
  | Send of { dst : string; tag : string; args : expr list }
  | If of (expr * stmt) list
  | Do of (expr * stmt) list
  | Seq of stmt list

type var_decl = {
  var_name : string;
  init : Value.t;
  comment : string option;
  ghost : bool;
  local : bool;
}

type action =
  | Guarded of { label : string; guard : expr; body : stmt }
  | Receive of {
      label : string;
      from_ : string;
      tag : string;
      binder : string;
      guard : expr;
      body : stmt;
    }

type process = {
  name : string;
  consts : (string * int) list;
  vars : var_decl list;
  actions : action list;
}

let var name = Var name
let int i = Int_lit i
let ( +: ) a b = Add (a, b)
let ( -: ) a b = Sub (a, b)
let ( <=: ) a b = Le (a, b)
let ( <: ) a b = Lt (a, b)
let ( >=: ) a b = Ge (a, b)
let ( >: ) a b = Gt (a, b)
let ( =: ) a b = Eq (a, b)
let ( &&: ) a b = And (a, b)
let not_ e = Not e
let assign name e = Assign ([ Lvar name ], [ e ])
let assign_many pairs = Assign (List.map fst pairs, List.map snd pairs)
let seq stmts = Seq stmts

let plain_var ?comment var_name init =
  { var_name; init; comment; ghost = false; local = false }

let ghost_var ?comment var_name init =
  { var_name; init; comment; ghost = true; local = false }

let local_var ?comment var_name init =
  { var_name; init; comment; ghost = false; local = true }
