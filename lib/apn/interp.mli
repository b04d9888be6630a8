(** Compiler from {!Ast} processes to executable {!Process.t}s.

    A process is compiled once and instantiated per build. {!compile}
    type-checks the process and resolves every name to a slot of the
    state: a variable to its slot in name order, a constant or a local
    to a scratch slot past the variables (see {!State}). The compiled
    program owns the state layout and its actions, and holds no mutable
    data, so one program serves every build. {!instantiate} binds the
    constants' values and fills the initial values in slot order; it
    walks no syntax tree, builds no name table and makes no closure.

    Semantics: a simultaneous assignment evaluates every right-hand side
    (and every index on the left) before it stores any value, as the
    notation requires. An [if … fi] runs the first branch whose guard
    holds; the paper never writes one with no true guard, so that is an
    error. A [do … od] repeats until no guard holds. Every action starts
    with its locals at their initial values. Arrays are 1-based, as the
    paper's [wdw\[1..w\]]. *)

exception Eval_error of string
(** At compile time: a type error, an unknown or duplicate name, an
    assignment to a constant or a whole array, an array local, or a
    guard that reads a local. At run time: an array index out of range,
    an [if … fi] with no true guard, or a message of the wrong form. *)

type program
(** A compiled process. *)

val compile : Ast.process -> program
(** @raise Eval_error when the process is ill-formed. *)

val instantiate : program -> Ast.process -> Process.t
(** [instantiate prog p] runs [prog] with [p]'s constants' values and
    initial values. [p] is the compiled process up to those values: the
    same action list (physically), and the same constants and variables
    in the same order with the same kinds.
    @raise Invalid_argument otherwise. *)
