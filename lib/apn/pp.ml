open Format

(* Precedence levels, loosest first: or < and < not < comparison <
   additive < multiplicative < atoms. *)
let prec = function
  | Ast.Or _ -> 1
  | Ast.And _ -> 2
  | Ast.Not _ -> 3
  | Ast.Le _ | Ast.Lt _ | Ast.Ge _ | Ast.Gt _ | Ast.Eq _ -> 4
  | Ast.Add _ | Ast.Sub _ -> 5
  | Ast.Mul _ -> 6
  | Ast.Int_lit _ | Ast.Bool_lit _ | Ast.Var _ | Ast.Index _ -> 7

let rec pp_expr_prec level ppf e =
  let p = prec e in
  let wrap body =
    if p < level then fprintf ppf "(%t)" body else body ppf
  in
  match e with
  | Ast.Int_lit i -> pp_print_int ppf i
  | Ast.Bool_lit true -> pp_print_string ppf "true"
  | Ast.Bool_lit false -> pp_print_string ppf "false"
  | Ast.Var name -> pp_print_string ppf name
  | Ast.Index (name, idx) -> fprintf ppf "%s[%a]" name (pp_expr_prec 0) idx
  | Ast.Add (a, b) -> wrap (fun ppf -> binop ppf p "+" a b)
  | Ast.Sub (a, b) -> wrap (fun ppf -> binop_left ppf p "-" a b)
  | Ast.Mul (a, b) -> wrap (fun ppf -> binop ppf p "*" a b)
  | Ast.Le (a, b) -> wrap (fun ppf -> binop ppf p "<=" a b)
  | Ast.Lt (a, b) -> wrap (fun ppf -> binop ppf p "<" a b)
  | Ast.Ge (a, b) -> wrap (fun ppf -> binop ppf p ">=" a b)
  | Ast.Gt (a, b) -> wrap (fun ppf -> binop ppf p ">" a b)
  | Ast.Eq (a, b) -> wrap (fun ppf -> binop ppf p "=" a b)
  | Ast.And (a, b) -> wrap (fun ppf -> binop ppf p "and" a b)
  | Ast.Or (a, b) -> wrap (fun ppf -> binop ppf p "or" a b)
  | Ast.Not a -> wrap (fun ppf -> fprintf ppf "~%a" (pp_expr_prec 7) a)

and binop ppf p op a b =
  fprintf ppf "%a %s %a" (pp_expr_prec p) a op (pp_expr_prec (p + 1)) b

(* left-associative with a non-associative right side (subtraction) *)
and binop_left ppf p op a b =
  fprintf ppf "%a %s %a" (pp_expr_prec p) a op (pp_expr_prec (p + 1)) b

let pp_expr ppf e = pp_expr_prec 0 ppf e

let pp_lhs ppf = function
  | Ast.Lvar name -> pp_print_string ppf name
  | Ast.Lindex (name, idx) -> fprintf ppf "%s[%a]" name pp_expr idx

let rec pp_stmt ppf (s : Ast.stmt) =
  match s with
  | Ast.Skip -> pp_print_string ppf "skip"
  | Ast.Assign (lhss, rhss) ->
    fprintf ppf "@[<hv 2>%a :=@ %a@]"
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ") pp_lhs)
      lhss
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ") pp_expr)
      rhss
  | Ast.Send { dst; tag; args } ->
    fprintf ppf "send %s(%a) to %s" tag
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ") pp_expr)
      args dst
  | Ast.If branches ->
    fprintf ppf "@[<v 0>if @[<v 0>%a@]@ fi@]"
      (pp_print_list
         ~pp_sep:(fun ppf () -> fprintf ppf "@ [] ")
         (fun ppf (g, b) -> fprintf ppf "@[<hv 2>%a ->@ %a@]" pp_expr g pp_stmt b))
      branches
  | Ast.Do branches ->
    fprintf ppf "@[<v 0>do @[<v 0>%a@]@ od@]"
      (pp_print_list
         ~pp_sep:(fun ppf () -> fprintf ppf "@ [] ")
         (fun ppf (g, b) -> fprintf ppf "@[<hv 2>%a ->@ %a@]" pp_expr g pp_stmt b))
      branches
  | Ast.Seq stmts ->
    fprintf ppf "@[<v 0>%a@]"
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ";@ ") pp_stmt)
      stmts

let value_text = function
  | Value.Int i -> string_of_int i
  | Value.Bool b -> if b then "true" else "false"
  | Value.Bool_array a -> Printf.sprintf "array [1..%d] of boolean" (Array.length a)

let type_text = function
  | Value.Int _ -> "integer"
  | Value.Bool _ -> "boolean"
  | Value.Bool_array a -> Printf.sprintf "array [1..%d] of boolean" (Array.length a)

let pp_var ppf (d : Ast.var_decl) =
  let annotation =
    match d.Ast.comment with
    | Some c -> Printf.sprintf " {%s}" c
    | None -> (
      match d.Ast.init with
      | Value.Bool_array _ -> ""
      | v -> Printf.sprintf " {initially %s}" (value_text v))
  in
  let sort = if d.Ast.ghost then " {ghost}" else if d.Ast.local then " {local}" else "" in
  fprintf ppf "%s : %s%s%s" d.Ast.var_name (type_text d.Ast.init) annotation sort

let pp_action ppf (a : Ast.action) =
  match a with
  | Ast.Guarded { label; guard; body } ->
    fprintf ppf "@[<v 4>%a ->  {%s}@ %a@]" pp_expr guard label pp_stmt body
  | Ast.Receive { label; from_; tag; binder; guard; body } ->
    let guard_text =
      match guard with
      | Ast.Bool_lit true -> ""
      | g -> asprintf " provided %a" pp_expr g
    in
    fprintf ppf "@[<v 4>rcv %s(%s) from %s%s ->  {%s}@ %a@]" tag binder from_
      guard_text label pp_stmt body

let pp_process ppf (p : Ast.process) =
  fprintf ppf "@[<v 0>process %s@ " p.Ast.name;
  (match p.Ast.consts with
  | [] -> ()
  | consts ->
    fprintf ppf "const %s : integer@ "
      (String.concat ", " (List.map fst consts)));
  (match p.Ast.vars with
  | [] -> ()
  | first :: rest ->
    fprintf ppf "var   %a@ " pp_var first;
    List.iter (fun d -> fprintf ppf "      %a@ " pp_var d) rest);
  fprintf ppf "begin@ ";
  (match p.Ast.actions with
  | [] -> ()
  | first :: rest ->
    fprintf ppf "      %a@ " pp_action first;
    List.iter (fun a -> fprintf ppf "[]    %a@ " pp_action a) rest);
  fprintf ppf "end@]"

let process_to_string p = asprintf "%a" pp_process p
