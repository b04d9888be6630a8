(* The APN abstract syntax: the compiler's semantics, the renderer, and
   the equivalence of the compiled models with an oracle of the same
   processes hand-written as OCaml closures. *)

open Resets_apn
open Ast

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let no_send : Process.context =
  { Process.self = "test"; send = (fun ~dst:_ _ -> Alcotest.fail "unexpected send") }

(* ------------------------------------------------------------------ *)
(* Expression evaluation and statement execution, through the compiler:
   a one-action process over the given variables, compiled,
   instantiated and run once. *)

let vars bindings = List.map (fun (name, v) -> plain_var name v) bindings

let exec ?(consts = []) ?(ctx = no_send) bindings body =
  let p =
    {
      name = "t";
      consts;
      vars = vars bindings;
      actions = [ Guarded { label = "run"; guard = Bool_lit true; body } ];
    }
  in
  let proc = Interp.instantiate (Interp.compile p) p in
  let st = State.copy proc.Process.init in
  (match proc.Process.actions with
  | [ Process.Internal { effect; _ } ] -> effect ctx st
  | _ -> Alcotest.fail "one internal action expected");
  st

let eval_int ?consts bindings e =
  State.get_int (exec ?consts (bindings @ [ ("out", Value.Int 0) ]) (assign "out" e)) "out"

let eval_bool ?consts bindings e =
  let st = exec ?consts (bindings @ [ ("out", Value.Bool false) ]) (assign "out" e) in
  State.get_bool st "out"

let raises_eval_error f =
  match f () with
  | exception Interp.Eval_error _ -> true
  | _ -> false

let test_eval_arithmetic () =
  check_int "arith" 9
    (eval_int [ ("x", Value.Int 10) ] ((var "x" +: int 5) -: Mul (int 2, int 3)))

let test_eval_comparisons () =
  let t e = eval_bool [ ("x", Value.Int 10) ] e in
  check_bool "le" true (t (var "x" <=: int 10));
  check_bool "lt" false (t (var "x" <: int 10));
  check_bool "ge" true (t (var "x" >=: int 10));
  check_bool "gt" false (t (var "x" >: int 10));
  check_bool "eq" true (t (var "x" =: int 10));
  check_bool "and" false (t ((var "x" >: int 5) &&: (var "x" >: int 20)));
  check_bool "or" true (t (Or (var "x" >: int 5, var "x" >: int 20)));
  check_bool "not" true (t (not_ (var "x" >: int 20)))

let test_eval_consts_shadow_nothing () =
  let x = [ ("x", Value.Int 1) ] in
  check_int "const read" 42 (eval_int ~consts:[ ("k", 42) ] x (var "k"));
  check_int "var read" 1 (eval_int ~consts:[ ("k", 42) ] x (var "x"))

let test_eval_array_indexing_is_one_based () =
  let a = [ ("a", Value.Bool_array [| true; false |]) ] in
  check_bool "a[1]" true (eval_bool a (Index ("a", int 1)));
  check_bool "a[2]" false (eval_bool a (Index ("a", int 2)));
  check_bool "a[0] raises" true
    (raises_eval_error (fun () -> eval_bool a (Index ("a", int 0))))

let test_eval_type_errors () =
  let b = [ ("b", Value.Bool true) ] in
  check_bool "int of bool raises" true (raises_eval_error (fun () -> eval_int b (var "b")));
  check_bool "unknown name raises" true
    (raises_eval_error (fun () -> eval_int b (var "nope")))

(* ------------------------------------------------------------------ *)
(* Statement execution *)

let test_simultaneous_assignment () =
  (* the paper's idiom: wdw[j], j := false, j + 1 — the index uses the
     old j *)
  let st =
    exec
      [ ("a", Value.Bool_array [| true; true |]); ("j", Value.Int 1) ]
      (assign_many [ (Lindex ("a", var "j"), Bool_lit false); (Lvar "j", var "j" +: int 1) ])
  in
  check_bool "a[1] cleared" false (State.get_bool_array st "a").(0);
  check_bool "a[2] untouched" true (State.get_bool_array st "a").(1);
  check_int "j bumped" 2 (State.get_int st "j")

let test_simultaneous_swap () =
  let st =
    exec
      [ ("x", Value.Int 1); ("y", Value.Int 2) ]
      (assign_many [ (Lvar "x", var "y"); (Lvar "y", var "x") ])
  in
  check_int "x" 2 (State.get_int st "x");
  check_int "y" 1 (State.get_int st "y")

let test_if_selects_true_branch () =
  let st =
    exec
      [ ("x", Value.Int 5) ]
      (If
         [
           (var "x" >: int 10, assign "x" (int 0));
           (var "x" <=: int 10, assign "x" (int 99));
         ])
  in
  check_int "second branch" 99 (State.get_int st "x")

let test_if_no_true_guard_is_error () =
  check_bool "raises" true
    (raises_eval_error (fun () ->
         exec [ ("x", Value.Int 5) ] (If [ (Bool_lit false, Skip) ])))

let test_do_loops_until_false () =
  let st =
    exec [ ("i", Value.Int 0) ] (Do [ (var "i" <: int 10, assign "i" (var "i" +: int 1)) ])
  in
  check_int "looped" 10 (State.get_int st "i")

let test_send_reaches_context () =
  let sent = ref [] in
  let ctx =
    { Process.self = "p"; send = (fun ~dst msg -> sent := (dst, msg) :: !sent) }
  in
  ignore
    (exec ~ctx [ ("s", Value.Int 7) ] (Send { dst = "q"; tag = "msg"; args = [ var "s" ] }));
  check_int "one send" 1 (List.length !sent);
  check_bool "payload" true
    (!sent = [ ("q", { Message.tag = "msg"; args = [ 7 ] }) ])

let test_arity_mismatch () =
  check_bool "raises" true
    (raises_eval_error (fun () ->
         exec [ ("x", Value.Int 0) ] (Assign ([ Lvar "x" ], [ int 1; int 2 ]))))

(* ------------------------------------------------------------------ *)
(* Compilation: locals, and instances of one program *)

let counter_process =
  {
    name = "t";
    consts = [];
    vars = [ plain_var "out" (Value.Int 0); local_var "t" (Value.Int 5) ];
    actions =
      [
        Guarded
          {
            label = "count";
            guard = Bool_lit true;
            body =
              seq [ assign "t" (var "t" +: int 1); assign "out" (var "out" +: var "t") ];
          };
      ];
  }

let test_locals () =
  let proc = Interp.instantiate (Interp.compile counter_process) counter_process in
  let st = State.copy proc.Process.init in
  let effect =
    match proc.Process.actions with
    | [ Process.Internal { effect; _ } ] -> effect no_send
    | _ -> Alcotest.fail "one internal action expected"
  in
  effect st;
  effect st;
  check_int "each action starts with t = 5" 12 (State.get_int st "out");
  Alcotest.(check (list string))
    "a local is not state" [ "out" ] (List.map fst (State.snapshot st));
  let reads_local =
    {
      counter_process with
      actions = [ Guarded { label = "g"; guard = var "t" >: int 0; body = Skip } ];
    }
  in
  check_bool "a guard may not read a local" true
    (raises_eval_error (fun () -> Interp.compile reads_local))

let test_instantiate_checks_shape () =
  let program = Interp.compile counter_process in
  let init v = State.get_int (Interp.instantiate program v).Process.init "out" in
  let with_vars vars = { counter_process with vars } in
  check_int "values may differ" 3
    (init (with_vars [ plain_var "out" (Value.Int 3); local_var "t" (Value.Int 0) ]));
  let rejects p =
    match Interp.instantiate program p with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "another action list" true
    (rejects { counter_process with actions = List.map Fun.id counter_process.actions });
  check_bool "another variable" true
    (rejects (with_vars [ plain_var "out" (Value.Int 0); local_var "u" (Value.Int 5) ]));
  check_bool "another kind" true
    (rejects (with_vars [ plain_var "out" (Value.Bool false); local_var "t" (Value.Int 5) ]))

(* ------------------------------------------------------------------ *)
(* Renderer *)

let test_pp_expr_precedence () =
  let s e = Format.asprintf "%a" Pp.pp_expr e in
  check_str "flat sum" "s + 1" (s (var "s" +: int 1));
  check_str "cmp over sum" "s >= Kp + lst" (s (var "s" >=: (var "Kp" +: var "lst")));
  check_str "paren for nested cmp arg" "r - w < s and s <= r"
    (s ((var "r" -: var "w" <: var "s") &&: (var "s" <=: var "r")));
  check_str "not" "~wait" (s (not_ (var "wait")));
  check_str "index" "wdw[s - r + w]" (s (Index ("wdw", var "s" -: var "r" +: var "w")))

let test_pp_stmt_forms () =
  let s st = Format.asprintf "%a" Pp.pp_stmt st in
  check_str "skip" "skip" (s Skip);
  check_str "send" "send msg(s) to q"
    (s (Send { dst = "q"; tag = "msg"; args = [ var "s" ] }));
  check_bool "simultaneous assignment" true
    (s (assign_many [ (Lvar "r", var "s"); (Lvar "j", int 1) ]) = "r, j := s, 1")

let test_pp_process_contains_paper_phrases () =
  let text = Pp.process_to_string (Models.augmented_p ~kp:25 ()) in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "process header" true (contains "process p");
  check_bool "const decl" true (contains "const Kp");
  check_bool "send" true (contains "send msg(s) to q");
  check_bool "save trigger" true (contains "s >= Kp + lst");
  check_bool "guards separated" true (contains "[]");
  check_bool "wakeup leap" true (contains "pst + leap")

let test_pp_q_shows_shift_loops () =
  let text = Pp.process_to_string (Models.original_q ~w:4 ()) in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "three cases" true (contains "s <= r - w");
  check_bool "simultaneous slide" true (contains "r, i, j := s, s - r + 1, 1");
  check_bool "first loop" true (contains "do i <= w");
  check_bool "second loop" true (contains "j < w");
  check_bool "receive" true (contains "rcv msg(s) from p")

let test_pp_q_locals_and_robust_branch () =
  let text = Pp.process_to_string (Models.augmented_q ~robust:true ~kq:1 ~w:2 ()) in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "locals marked" true (contains "i : integer {initially 0} {local}");
  check_bool "robust branch" true (contains "r > pst + leap ->");
  check_bool "robust save" true (contains "pst, lst, pend := r, r, -1")

(* ------------------------------------------------------------------ *)
(* The oracle: the paper's processes hand-written as OCaml closures,
   which the compiled AST models must match step for step. *)

module Oracle = struct
  open Value

  (* The three-case window update of process q, including the paper's
     two shift loops. Returns true when the message is delivered. *)
  let window_receive st s =
    let wdw = State.get_bool_array st "wdw" in
    let w = Array.length wdw in
    let r = State.get_int st "r" in
    if s <= r - w then false
    else if s <= r then begin
      let i = s - r + w in
      if wdw.(i - 1) then false
      else begin
        wdw.(i - 1) <- true;
        true
      end
    end
    else begin
      let i = ref (s - r + 1) and j = ref 1 in
      State.set_int st "r" s;
      while !i <= w do
        wdw.(!j - 1) <- wdw.(!i - 1);
        incr i;
        incr j
      done;
      while !j < w do
        wdw.(!j - 1) <- false;
        incr j
      done;
      wdw.(w - 1) <- true;
      true
    end

  let mark_delivered ~s_max st s =
    if s >= 1 && s <= s_max then begin
      let dlv = State.get_bool_array st "dlv" in
      if dlv.(s - 1) then State.set_bool st "dup" true else dlv.(s - 1) <- true
    end;
    if s > State.get_int st "max_dlv" then State.set_int st "max_dlv" s

  let fill_true a = Array.fill a 0 (Array.length a) true

  let original_p (bounds : Models.bounds) =
    Process.make ~name:"p"
      ~init:[ ("s", Int 1); ("resets", Int 0); ("max_sent", Int 0) ]
      ~actions:
        [
          Process.Internal
            {
              label = "send";
              guard = (fun st -> State.get_int st "s" <= bounds.s_max);
              effect =
                (fun ctx st ->
                  let s = State.get_int st "s" in
                  ctx.send ~dst:"q" (Message.msg s);
                  if s > State.get_int st "max_sent" then State.set_int st "max_sent" s;
                  State.set_int st "s" (s + 1));
            };
          Process.Internal
            {
              label = "reset";
              guard = (fun st -> State.get_int st "resets" < bounds.p_resets);
              effect =
                (fun _ctx st ->
                  State.set_int st "s" 1;
                  State.set_int st "resets" (State.get_int st "resets" + 1));
            };
        ]

  let original_q (bounds : Models.bounds) ~w =
    Process.make ~name:"q"
      ~init:
        [
          ("wdw", Bool_array (Array.make w true));
          ("r", Int 0);
          ("resets", Int 0);
          ("dlv", Bool_array (Array.make bounds.s_max false));
          ("dup", Bool false);
          ("max_dlv", Int 0);
        ]
      ~actions:
        [
          Process.Receive
            {
              label = "rcv";
              from_ = "p";
              guard = (fun _st -> true);
              effect =
                (fun _ctx st msg ->
                  match msg.Message.args with
                  | [ s ] -> if window_receive st s then mark_delivered ~s_max:bounds.s_max st s
                  | [] | _ :: _ -> invalid_arg "original_q: malformed message");
            };
          Process.Internal
            {
              label = "reset";
              guard = (fun st -> State.get_int st "resets" < bounds.q_resets);
              effect =
                (fun _ctx st ->
                  State.set_int st "r" 0;
                  fill_true (State.get_bool_array st "wdw");
                  State.set_int st "resets" (State.get_int st "resets" + 1));
            };
        ]

  (* Persistent memory is [pst]; a background SAVE in flight is
     [pend >= 0] until [save_done]; [pend_wk] is the wakeup SAVE. *)
  let augmented_p (bounds : Models.bounds) ~leap ~kp =
    Process.make ~name:"p"
      ~init:
        [
          ("s", Int 1);
          ("lst", Int 1);
          ("wait", Bool false);
          ("pend", Int (-1));
          ("pend_wk", Int (-1));
          ("pst", Int 1);
          ("resets", Int 0);
          ("max_sent", Int 0);
          ("stale_resume", Bool false);
        ]
      ~actions:
        [
          Process.Internal
            {
              label = "send";
              guard =
                (fun st ->
                  (not (State.get_bool st "wait")) && State.get_int st "s" <= bounds.s_max);
              effect =
                (fun ctx st ->
                  let s = State.get_int st "s" in
                  ctx.send ~dst:"q" (Message.msg s);
                  if s > State.get_int st "max_sent" then State.set_int st "max_sent" s;
                  let s = s + 1 in
                  State.set_int st "s" s;
                  if s >= kp + State.get_int st "lst" then begin
                    let pend = State.get_int st "pend" in
                    if pend >= 0 then State.set_int st "pst" pend;
                    State.set_int st "lst" s;
                    State.set_int st "pend" s
                  end);
            };
          Process.Internal
            {
              label = "save_done";
              guard = (fun st -> State.get_int st "pend" >= 0);
              effect =
                (fun _ctx st ->
                  State.set_int st "pst" (State.get_int st "pend");
                  State.set_int st "pend" (-1));
            };
          Process.Internal
            {
              label = "reset";
              guard = (fun st -> State.get_int st "resets" < bounds.p_resets);
              effect =
                (fun _ctx st ->
                  State.set_bool st "wait" true;
                  State.set_int st "pend" (-1);
                  State.set_int st "pend_wk" (-1);
                  State.set_int st "resets" (State.get_int st "resets" + 1));
            };
          Process.Internal
            {
              label = "wakeup_begin";
              guard =
                (fun st -> State.get_bool st "wait" && State.get_int st "pend_wk" < 0);
              effect =
                (fun _ctx st -> State.set_int st "pend_wk" (State.get_int st "pst" + leap));
            };
          Process.Internal
            {
              label = "wakeup_done";
              guard =
                (fun st -> State.get_bool st "wait" && State.get_int st "pend_wk" >= 0);
              effect =
                (fun _ctx st ->
                  let s = State.get_int st "pend_wk" in
                  State.set_int st "pst" s;
                  State.set_int st "s" s;
                  State.set_int st "lst" s;
                  if s <= State.get_int st "max_sent" then
                    State.set_bool st "stale_resume" true;
                  State.set_int st "pend_wk" (-1);
                  State.set_bool st "wait" false);
            };
        ]

  let augmented_q (bounds : Models.bounds) ~robust ~leap ~kq ~w =
    Process.make ~name:"q"
      ~init:
        [
          ("wdw", Bool_array (Array.make w true));
          ("r", Int 0);
          ("lst", Int 0);
          ("wait", Bool false);
          ("pend", Int (-1));
          ("pend_wk", Int (-1));
          ("pst", Int 0);
          ("resets", Int 0);
          ("dlv", Bool_array (Array.make bounds.s_max false));
          ("dup", Bool false);
          ("max_dlv", Int 0);
          ("stale_edge", Bool false);
        ]
      ~actions:
        [
          Process.Receive
            {
              label = "rcv";
              from_ = "p";
              guard = (fun st -> not (State.get_bool st "wait"));
              effect =
                (fun _ctx st msg ->
                  match msg.Message.args with
                  | [ s ] ->
                    if window_receive st s then mark_delivered ~s_max:bounds.s_max st s;
                    let r = State.get_int st "r" in
                    if robust && r > State.get_int st "pst" + leap then begin
                      State.set_int st "pst" r;
                      State.set_int st "lst" r;
                      State.set_int st "pend" (-1)
                    end
                    else if r >= kq + State.get_int st "lst" then begin
                      let pend = State.get_int st "pend" in
                      if pend >= 0 then State.set_int st "pst" pend;
                      State.set_int st "lst" r;
                      State.set_int st "pend" r
                    end
                  | [] | _ :: _ -> invalid_arg "augmented_q: malformed message");
            };
          Process.Internal
            {
              label = "save_done";
              guard = (fun st -> State.get_int st "pend" >= 0);
              effect =
                (fun _ctx st ->
                  State.set_int st "pst" (State.get_int st "pend");
                  State.set_int st "pend" (-1));
            };
          Process.Internal
            {
              label = "reset";
              guard = (fun st -> State.get_int st "resets" < bounds.q_resets);
              effect =
                (fun _ctx st ->
                  State.set_bool st "wait" true;
                  State.set_int st "pend" (-1);
                  State.set_int st "pend_wk" (-1);
                  State.set_int st "resets" (State.get_int st "resets" + 1));
            };
          Process.Internal
            {
              label = "wakeup_begin";
              guard =
                (fun st -> State.get_bool st "wait" && State.get_int st "pend_wk" < 0);
              effect =
                (fun _ctx st -> State.set_int st "pend_wk" (State.get_int st "pst" + leap));
            };
          Process.Internal
            {
              label = "wakeup_done";
              guard =
                (fun st -> State.get_bool st "wait" && State.get_int st "pend_wk" >= 0);
              effect =
                (fun _ctx st ->
                  let r = State.get_int st "pend_wk" in
                  State.set_int st "pst" r;
                  State.set_int st "r" r;
                  State.set_int st "lst" r;
                  fill_true (State.get_bool_array st "wdw");
                  if r < State.get_int st "max_dlv" then State.set_bool st "stale_edge" true;
                  State.set_int st "pend_wk" (-1);
                  State.set_bool st "wait" false);
            };
        ]

  let original_system ~bounds ?capacity ?adversary ?lossy ~w () =
    System.create ?capacity ?adversary ?lossy [ original_p bounds; original_q bounds ~w ]

  let augmented_system ~bounds ?capacity ?adversary ?lossy ?(robust = false) ?leap_p ~kp
      ~kq ~w () =
    System.create ?capacity ?adversary ?lossy
      [
        augmented_p bounds ~leap:(Option.value ~default:(2 * kp) leap_p) ~kp;
        augmented_q bounds ~robust ~leap:(2 * kq) ~kq ~w;
      ]
end

(* ------------------------------------------------------------------ *)
(* The compiled models behave exactly like the oracle *)

(* Both systems take the same random schedule; at every step they must
   enable the same steps and reach the same snapshot, which packs every
   state variable and every channel. *)
let lockstep ~steps ~seed sys_a sys_b =
  let prng = Resets_util.Prng.create seed in
  let rec loop k =
    if k = 0 then true
    else begin
      let ea = System.enabled_steps sys_a and eb = System.enabled_steps sys_b in
      let la = List.map System.step_label ea and lb = List.map System.step_label eb in
      if la <> lb then
        Alcotest.failf "enabled sets diverge at step %d: [%s] vs [%s]" k
          (String.concat ";" la) (String.concat ";" lb);
      match ea with
      | [] -> true
      | steps_list ->
        let i = Resets_util.Prng.int prng (List.length steps_list) in
        System.execute sys_a (List.nth ea i);
        System.execute sys_b (List.nth eb i);
        if not (System.snapshot_equal (System.snapshot sys_a) (System.snapshot sys_b)) then
          Alcotest.failf "states diverge at step %d (%s)" k (List.nth la i);
        loop (k - 1)
    end
  in
  loop steps

let test_lockstep_original () =
  let bounds = Models.{ s_max = 5; p_resets = 1; q_resets = 1 } in
  let a = Models.original_system ~bounds ~capacity:2 ~adversary:true ~w:2 () in
  let b = Oracle.original_system ~bounds ~capacity:2 ~adversary:true ~w:2 () in
  check_bool "500 lockstep steps" true (lockstep ~steps:500 ~seed:3 a b)

let test_lockstep_augmented () =
  let bounds = Models.{ s_max = 5; p_resets = 2; q_resets = 2 } in
  let a = Models.augmented_system ~bounds ~capacity:2 ~adversary:true ~kp:2 ~kq:2 ~w:2 () in
  let b = Oracle.augmented_system ~bounds ~capacity:2 ~adversary:true ~kp:2 ~kq:2 ~w:2 () in
  check_bool "500 lockstep steps" true (lockstep ~steps:500 ~seed:4 a b)

let test_lockstep_robust () =
  let bounds = Models.{ s_max = 5; p_resets = 1; q_resets = 1 } in
  List.iter
    (fun seed ->
      let a =
        Models.augmented_system ~bounds ~capacity:2 ~adversary:true ~robust:true ~kp:1 ~kq:1
          ~w:2 ()
      in
      let b =
        Oracle.augmented_system ~bounds ~capacity:2 ~adversary:true ~robust:true ~kp:1 ~kq:1
          ~w:2 ()
      in
      check_bool "500 lockstep steps" true (lockstep ~steps:500 ~seed a b))
    [ 5; 6; 7; 8 ]

let lockstep_property =
  QCheck.Test.make ~name:"closure and AST models agree under any schedule" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let bounds = Models.{ s_max = 4; p_resets = 1; q_resets = 1 } in
      let a =
        Models.augmented_system ~bounds ~capacity:2 ~adversary:true ~lossy:true ~kp:1 ~kq:1
          ~w:2 ()
      in
      let b =
        Oracle.augmented_system ~bounds ~capacity:2 ~adversary:true ~lossy:true ~kp:1 ~kq:1
          ~w:2 ()
      in
      lockstep ~steps:300 ~seed a b)

let test_snapshot_variables () =
  let bounds = Models.default_bounds in
  let names sys proc = List.map fst (State.snapshot (System.state_of sys proc)) in
  List.iter
    (fun (model, a, b) ->
      List.iter
        (fun proc ->
          Alcotest.(check (list string)) (model ^ " " ^ proc) (names b proc) (names a proc))
        [ "p"; "q" ])
    [
      ( "original",
        Models.original_system ~bounds ~w:2 (),
        Oracle.original_system ~bounds ~w:2 () );
      ( "augmented",
        Models.augmented_system ~bounds ~kp:1 ~kq:1 ~w:2 (),
        Oracle.augmented_system ~bounds ~kp:1 ~kq:1 ~w:2 () );
      ( "robust",
        Models.augmented_system ~bounds ~robust:true ~kp:1 ~kq:1 ~w:2 (),
        Oracle.augmented_system ~bounds ~robust:true ~kp:1 ~kq:1 ~w:2 () );
    ]

let test_explorer_verdicts_agree () =
  let outcome sys =
    match
      Explorer.explore ~max_states:400_000 ~invariant:Models.all_section5_invariants sys
    with
    | Explorer.Violation { states; trace } ->
      Printf.sprintf "violation %d: %s" states (String.concat ";" trace)
    | Explorer.Exhausted { states } -> Printf.sprintf "exhausted %d" states
    | Explorer.Limit_reached { states } -> Printf.sprintf "limit %d" states
  in
  let bounds = Models.{ s_max = 3; p_resets = 0; q_resets = 1 } in
  check_str "original"
    (outcome (Oracle.original_system ~bounds ~capacity:2 ~adversary:true ~w:2 ()))
    (outcome (Models.original_system ~bounds ~capacity:2 ~adversary:true ~w:2 ()));
  let bounds = Models.{ s_max = 3; p_resets = 1; q_resets = 1 } in
  List.iter
    (fun robust ->
      check_str
        (if robust then "robust" else "augmented")
        (outcome
           (Oracle.augmented_system ~bounds ~capacity:2 ~adversary:true ~robust ~kp:1 ~kq:1
              ~w:2 ()))
        (outcome
           (Models.augmented_system ~bounds ~capacity:2 ~adversary:true ~robust ~kp:1 ~kq:1
              ~w:2 ())))
    [ false; true ]

let test_ast_leap_ablation () =
  (* the AST models reproduce the leap ablation: 2K holds, K is refuted *)
  let bounds = Models.{ s_max = 5; p_resets = 1; q_resets = 0 } in
  let outcome leap =
    Explorer.explore ~max_states:500_000 ~invariant:Models.sender_freshness_holds
      (Models.augmented_system ~bounds ~capacity:2 ?leap_p:leap ~kp:2 ~kq:2 ~w:2 ())
  in
  check_bool "2K holds" true
    (match outcome None with Explorer.Exhausted _ -> true | _ -> false);
  check_bool "K refuted" true
    (match outcome (Some 2) with Explorer.Violation _ -> true | _ -> false)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ast"
    [
      ( "eval",
        [
          Alcotest.test_case "arithmetic" `Quick test_eval_arithmetic;
          Alcotest.test_case "comparisons" `Quick test_eval_comparisons;
          Alcotest.test_case "constants" `Quick test_eval_consts_shadow_nothing;
          Alcotest.test_case "1-based arrays" `Quick test_eval_array_indexing_is_one_based;
          Alcotest.test_case "type errors" `Quick test_eval_type_errors;
        ] );
      ( "exec",
        [
          Alcotest.test_case "simultaneous assignment" `Quick test_simultaneous_assignment;
          Alcotest.test_case "simultaneous swap" `Quick test_simultaneous_swap;
          Alcotest.test_case "if" `Quick test_if_selects_true_branch;
          Alcotest.test_case "if no guard" `Quick test_if_no_true_guard_is_error;
          Alcotest.test_case "do" `Quick test_do_loops_until_false;
          Alcotest.test_case "send" `Quick test_send_reaches_context;
          Alcotest.test_case "arity" `Quick test_arity_mismatch;
        ] );
      ( "compile",
        [
          Alcotest.test_case "locals" `Quick test_locals;
          Alcotest.test_case "instantiate checks shape" `Quick test_instantiate_checks_shape;
        ] );
      ( "render",
        [
          Alcotest.test_case "expr precedence" `Quick test_pp_expr_precedence;
          Alcotest.test_case "stmt forms" `Quick test_pp_stmt_forms;
          Alcotest.test_case "process p phrases" `Quick test_pp_process_contains_paper_phrases;
          Alcotest.test_case "process q shift loops" `Quick test_pp_q_shows_shift_loops;
          Alcotest.test_case "q locals, robust branch" `Quick
            test_pp_q_locals_and_robust_branch;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "lockstep original" `Quick test_lockstep_original;
          Alcotest.test_case "lockstep augmented" `Quick test_lockstep_augmented;
          Alcotest.test_case "lockstep robust" `Quick test_lockstep_robust;
          Alcotest.test_case "snapshot variables" `Quick test_snapshot_variables;
          qt lockstep_property;
          Alcotest.test_case "explorer verdicts" `Quick test_explorer_verdicts_agree;
          Alcotest.test_case "leap ablation via AST" `Quick test_ast_leap_ablation;
        ] );
    ]
