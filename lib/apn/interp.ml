exception Eval_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Eval_error m)) fmt
let expr_text e = Format.asprintf "%a" Pp.pp_expr e

type ty =
  | Int_ty
  | Bool_ty
  | Array_ty

let ty_of = function
  | Value.Int _ -> Int_ty
  | Value.Bool _ -> Bool_ty
  | Value.Bool_array _ -> Array_ty

(* Compiled code reads and writes one array, a state's slots: its
   variables in name order (the layout), then scratch: the constants,
   the locals' initial values, the locals, and two slots per target of
   the widest simultaneous assignment. *)
type slots = Value.t array

type sort =
  | Variable
  | Constant
  | Local

type binding = {
  slot : int;
  ty : ty;
  sort : sort;
}

type scope = {
  names : (string, binding) Hashtbl.t;
  in_guard : bool;
  pending : int;  (* the first slot of the simultaneous-assignment scratch *)
  width : int ref;  (* the widest simultaneous assignment so far *)
}

let lookup scope name =
  match Hashtbl.find_opt scope.names name with
  | None -> err "unknown name %s" name
  | Some { sort = Local; _ } when scope.in_guard -> err "a guard reads the local %s" name
  | Some b -> b

type code =
  | I of (slots -> int)
  | B of (slots -> bool)

let v_true = Value.Bool true
let v_false = Value.Bool false

let array_of scope name =
  match lookup scope name with
  | { ty = Array_ty; slot; _ } -> fun s -> Value.bool_array s.(slot)
  | { ty = Int_ty | Bool_ty; _ } -> err "%s is not an array" name

let check_index name a i =
  if i < 1 || i > Array.length a then err "%s[%d] out of range" name i

let rec expr scope (e : Ast.expr) =
  match e with
  | Ast.Int_lit i -> I (fun _ -> i)
  | Ast.Bool_lit b -> B (fun _ -> b)
  | Ast.Var name -> (
    match lookup scope name with
    | { ty = Int_ty; slot; _ } -> I (fun s -> Value.int s.(slot))
    | { ty = Bool_ty; slot; _ } -> B (fun s -> Value.bool s.(slot))
    | { ty = Array_ty; _ } -> err "%s is an array, not a value" name)
  | Ast.Index (name, idx) ->
    let a = array_of scope name and idx = int scope idx in
    B
      (fun s ->
        let a = a s and i = idx s in
        check_index name a i;
        a.(i - 1))
  | Ast.Add (a, b) ->
    let a = int scope a and b = int scope b in
    I (fun s -> a s + b s)
  | Ast.Sub (a, b) ->
    let a = int scope a and b = int scope b in
    I (fun s -> a s - b s)
  | Ast.Mul (a, b) ->
    let a = int scope a and b = int scope b in
    I (fun s -> a s * b s)
  | Ast.Le (a, b) ->
    let a = int scope a and b = int scope b in
    B (fun s -> a s <= b s)
  | Ast.Lt (a, b) ->
    let a = int scope a and b = int scope b in
    B (fun s -> a s < b s)
  | Ast.Ge (a, b) ->
    let a = int scope a and b = int scope b in
    B (fun s -> a s >= b s)
  | Ast.Gt (a, b) ->
    let a = int scope a and b = int scope b in
    B (fun s -> a s > b s)
  | Ast.Eq (a, b) -> (
    match (expr scope a, expr scope b) with
    | I a, I b -> B (fun s -> Int.equal (a s) (b s))
    | B a, B b -> B (fun s -> Bool.equal (a s) (b s))
    | I _, B _ | B _, I _ -> err "%s compares an integer with a boolean" (expr_text e))
  | Ast.And (a, b) ->
    let a = bool scope a and b = bool scope b in
    B (fun s -> a s && b s)
  | Ast.Or (a, b) ->
    let a = bool scope a and b = bool scope b in
    B (fun s -> a s || b s)
  | Ast.Not a ->
    let a = bool scope a in
    B (fun s -> not (a s))

and int scope e =
  match expr scope e with
  | I f -> f
  | B _ -> err "%s: expected an integer" (expr_text e)

and bool scope e =
  match expr scope e with
  | B f -> f
  | I _ -> err "%s: expected a boolean" (expr_text e)

(* An assignment target: a variable's slot, or an element of an array
   at an index computed from the state. *)
type target =
  | To_slot of int * ty
  | To_element of string * (slots -> bool array) * (slots -> int)

let target scope (l : Ast.lhs) =
  match l with
  | Ast.Lvar name -> (
    match lookup scope name with
    | { sort = Constant; _ } -> err "assignment to the constant %s" name
    | { ty = Array_ty; _ } -> err "assignment to the whole array %s" name
    | { slot; ty; _ } -> To_slot (slot, ty))
  | Ast.Lindex (name, idx) -> To_element (name, array_of scope name, int scope idx)

let value scope target e =
  let ty = match target with To_slot (_, ty) -> ty | To_element _ -> Bool_ty in
  match (ty, expr scope e) with
  | Int_ty, I f -> fun s -> Value.of_int (f s)
  | Bool_ty, B f -> fun s -> if f s then v_true else v_false
  | (Int_ty | Bool_ty | Array_ty), (I _ | B _) ->
    err "%s has the wrong type for its target" (expr_text e)

let store_element name a i v =
  check_index name a i;
  a.(i - 1) <- Value.bool v

let rec run_all ctx s = function
  | [] -> ()
  | stmt :: rest ->
    stmt ctx s;
    run_all ctx s rest

let rec first ctx s = function
  | [] -> err "if-fi with no true guard"
  | (g, body) :: rest -> if g s then body ctx s else first ctx s rest

let rec repeat ctx s all = function
  | [] -> ()
  | (g, body) :: rest ->
    if g s then begin
      body ctx s;
      repeat ctx s all all
    end
    else repeat ctx s all rest

let rec stmt scope (st : Ast.stmt) : Process.context -> slots -> unit =
  match st with
  | Ast.Skip -> fun _ _ -> ()
  | Ast.Assign ([ l ], [ e ]) -> (
    let t = target scope l in
    let v = value scope t e in
    match t with
    | To_slot (k, _) -> fun _ s -> s.(k) <- v s
    | To_element (name, a, idx) -> fun _ s -> store_element name (a s) (idx s) (v s))
  | Ast.Assign (lhss, rhss) ->
    (* First every value (and every index on the left) into the scratch,
       then every store. *)
    let n = List.length lhss in
    if n <> List.length rhss then
      err "assignment arity mismatch (%d targets, %d values)" n (List.length rhss);
    scope.width := max !(scope.width) n;
    let phases =
      List.mapi
        (fun k (l, e) ->
          let t = target scope l in
          let v = value scope t e in
          let at_v = scope.pending + (2 * k) and at_i = scope.pending + (2 * k) + 1 in
          match t with
          | To_slot (j, _) -> ((fun s -> s.(at_v) <- v s), fun s -> s.(j) <- s.(at_v))
          | To_element (name, a, idx) ->
            ( (fun s ->
                s.(at_v) <- v s;
                s.(at_i) <- Value.of_int (idx s)),
              fun s -> store_element name (a s) (Value.int s.(at_i)) s.(at_v) ))
        (List.combine lhss rhss)
    in
    let loads = Array.of_list (List.map fst phases) in
    let stores = Array.of_list (List.map snd phases) in
    fun _ s ->
      for k = 0 to n - 1 do
        loads.(k) s
      done;
      for k = 0 to n - 1 do
        stores.(k) s
      done
  | Ast.Send { dst; tag; args } ->
    let args = List.map (int scope) args in
    let rec values s = function [] -> [] | a :: rest -> a s :: values s rest in
    fun ctx s -> ctx.Process.send ~dst { Message.tag; args = values s args }
  | Ast.If branches ->
    let branches = List.map (branch scope) branches in
    fun ctx s -> first ctx s branches
  | Ast.Do branches ->
    let branches = List.map (branch scope) branches in
    fun ctx s -> repeat ctx s branches branches
  | Ast.Seq stmts ->
    let stmts = List.map (stmt scope) stmts in
    fun ctx s -> run_all ctx s stmts

and branch scope (g, body) = (bool scope g, stmt scope body)

type decl = {
  var_name : string;
  ty : ty;
  local : bool;
  init_slot : int;  (* where an instance puts the initial value *)
}

type program = {
  name : string;
  source : Ast.action list;  (* an instance runs these very actions *)
  consts : string list;
  decls : decl list;  (* declaration order *)
  layout : State.layout;
  n_vars : int;
  size : int;
  actions : Process.action list;
}

let compile (p : Ast.process) =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun name ->
      if Hashtbl.mem seen name then err "process %s declares %s twice" p.name name;
      Hashtbl.add seen name ())
    (List.map fst p.consts @ List.map (fun (d : Ast.var_decl) -> d.var_name) p.vars);
  let variables, locals = List.partition (fun (d : Ast.var_decl) -> not d.local) p.vars in
  let layout = State.layout (List.map (fun (d : Ast.var_decl) -> d.var_name) variables) in
  let n_vars = List.length variables and n_locals = List.length locals in
  let local_init = n_vars + List.length p.consts in
  let live = local_init + n_locals in
  let scope =
    { names = Hashtbl.create 16; in_guard = false; pending = live + n_locals; width = ref 0 }
  in
  let bind name b = Hashtbl.replace scope.names name b in
  List.iteri
    (fun k (name, _) -> bind name { slot = n_vars + k; ty = Int_ty; sort = Constant })
    p.consts;
  List.iteri
    (fun k (d : Ast.var_decl) ->
      if ty_of d.init = Array_ty then
        err "process %s: the local %s is an array" p.name d.var_name;
      bind d.var_name { slot = live + k; ty = ty_of d.init; sort = Local })
    locals;
  List.iter
    (fun (d : Ast.var_decl) ->
      bind d.var_name
        { slot = State.slot layout d.var_name; ty = ty_of d.init; sort = Variable })
    variables;
  let decls =
    List.map
      (fun (d : Ast.var_decl) ->
        let b = Hashtbl.find scope.names d.var_name in
        let init_slot = if d.local then b.slot - n_locals else b.slot in
        { var_name = d.var_name; ty = b.ty; local = d.local; init_slot })
      p.vars
  in
  let guard_scope = { scope with in_guard = true } in
  (* every action starts with its locals at their initial values; a
     local that already holds its initial value is not written *)
  let enter s =
    for k = 0 to n_locals - 1 do
      let v = s.(local_init + k) in
      if s.(live + k) != v then s.(live + k) <- v
    done
  in
  let action = function
    | Ast.Guarded { label; guard; body } ->
      let guard = bool guard_scope guard and body = stmt scope body in
      Process.Internal
        {
          label;
          guard = (fun st -> guard (State.slots st));
          effect =
            (fun ctx st ->
              let s = State.slots st in
              enter s;
              body ctx s);
        }
    | Ast.Receive { label; from_; tag; binder; guard; body } ->
      let bind =
        match target scope (Ast.Lvar binder) with
        | To_slot (k, Int_ty) -> k
        | To_slot _ | To_element _ -> err "process %s: %s is not an integer" p.name binder
      in
      let guard = bool guard_scope guard and body = stmt scope body in
      Process.Receive
        {
          label;
          from_;
          guard = (fun st -> guard (State.slots st));
          effect =
            (fun ctx st msg ->
              let s = State.slots st in
              enter s;
              match msg.Message.args with
              | [ arg ] when String.equal msg.Message.tag tag ->
                s.(bind) <- Value.of_int arg;
                body ctx s
              | _ ->
                err "process %s expected %s(_), got %s" p.name tag
                  (Format.asprintf "%a" Message.pp msg));
        }
  in
  let actions = List.map action p.actions in
  {
    name = p.name;
    source = p.actions;
    consts = List.map fst p.consts;
    decls;
    layout;
    n_vars;
    size = scope.pending + (2 * !(scope.width));
    actions;
  }

let same_shape prog (p : Ast.process) =
  let same xs ys eq = List.compare_lengths xs ys = 0 && List.for_all2 eq xs ys in
  String.equal p.name prog.name
  && p.actions == prog.source
  && same prog.consts p.consts (fun name (c, _) -> String.equal name c)
  && same prog.decls p.vars (fun d (v : Ast.var_decl) ->
         String.equal d.var_name v.var_name && d.ty = ty_of v.init && d.local = v.local)

let instantiate prog (p : Ast.process) =
  if not (same_shape prog p) then
    invalid_arg ("Interp.instantiate: process " ^ p.name ^ " is not the compiled one");
  let s = Array.make prog.size v_false in
  List.iteri (fun k (_, c) -> s.(prog.n_vars + k) <- Value.Int c) p.consts;
  List.iter2 (fun d (v : Ast.var_decl) -> s.(d.init_slot) <- v.init) prog.decls p.vars;
  { Process.name = p.name; init = State.of_slots prog.layout s; actions = prog.actions }
