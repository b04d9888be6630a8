(** Renderer: {!Ast} processes back to the paper's concrete notation.

    The output matches the layout of the paper's figures:

    {v
process p
const Kp, Tp : integer
var   s : integer {next to be sent, initially 1}
begin
      true ->
        send msg(s) to q;
        s := s + 1
[]    (process p is reset) ->
        ...
end
    v}

    Ghost variables are marked [{ghost}] and locals [{local}], so the
    protocol text stays comparable with the paper. *)

val pp_expr : Format.formatter -> Ast.expr -> unit
val pp_stmt : Format.formatter -> Ast.stmt -> unit

val process_to_string : Ast.process -> string
