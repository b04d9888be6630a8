open Ast

type bounds = {
  s_max : int;
  p_resets : int;
  q_resets : int;
}

let default_bounds = { s_max = 6; p_resets = 1; q_resets = 1 }

let at_least_one name v =
  if v < 1 then invalid_arg (Printf.sprintf "Models: %s must be at least 1, got %d" name v)

(* Shared ghost fragments ------------------------------------------- *)

(* {ghost} track the largest value some variable has carried *)
let track_max ~of_:value ~into =
  If
    [
      (value >: var into, assign into value);
      (not_ (value >: var into), Skip);
    ]

(* {ghost} record a delivery of sequence number [s]; a second delivery
   of the same number latches [dup]. *)
let mark_delivered =
  seq
    [
      If
        [
          (Index ("dlv", var "s"), assign "dup" (Bool_lit true));
          ( not_ (Index ("dlv", var "s")),
            Assign ([ Lindex ("dlv", var "s") ], [ Bool_lit true ]) );
        ];
      track_max ~of_:(var "s") ~into:"max_dlv";
    ]

let bump name = assign name (var name +: int 1)

(* ------------------------------------------------------------------ *)
(* Section 2: process p *)

let original_p_actions =
  [
    Guarded
      {
        label = "send";
        guard = var "s" <=: var "s_max";
        body =
          seq
            [
              Send { dst = "q"; tag = "msg"; args = [ var "s" ] };
              track_max ~of_:(var "s") ~into:"max_sent";
              assign "s" (var "s" +: int 1);
            ];
      };
    Guarded
      {
        label = "reset";
        guard = var "resets" <: var "max_resets";
        body = seq [ assign "s" (int 1); bump "resets" ];
      };
  ]

let original_p_vars =
  [
    plain_var ~comment:"next to be sent, initially 1" "s" (Value.Int 1);
    ghost_var "resets" (Value.Int 0);
    ghost_var "max_sent" (Value.Int 0);
  ]

let original_p ?(bounds = default_bounds) () =
  {
    name = "p";
    consts = [ ("s_max", bounds.s_max); ("max_resets", bounds.p_resets) ];
    vars = original_p_vars;
    actions = original_p_actions;
  }

(* ------------------------------------------------------------------ *)
(* Section 2: process q, with the paper's shift loops verbatim *)

(* The three-case receive of Section 2. [after_deliver] runs whenever
   the message is delivered. *)
let window_cases ~after_deliver =
  If
    [
      (var "s" <=: (var "r" -: var "w"), Skip);
      ( (var "r" -: var "w" <: var "s") &&: (var "s" <=: var "r"),
        seq
          [
            assign "i" (var "s" -: var "r" +: var "w");
            If
              [
                (Index ("wdw", var "i"), (* discard *) Skip);
                ( not_ (Index ("wdw", var "i")),
                  seq
                    [
                      Assign ([ Lindex ("wdw", var "i") ], [ Bool_lit true ]);
                      after_deliver;
                    ] );
              ];
          ] );
      ( var "r" <: var "s",
        seq
          [
            (* r, i, j := s, s - r + 1, 1  (simultaneous: i uses old r) *)
            assign_many
              [
                (Lvar "r", var "s");
                (Lvar "i", var "s" -: var "r" +: int 1);
                (Lvar "j", int 1);
              ];
            Do
              [
                ( var "i" <=: var "w",
                  assign_many
                    [
                      (Lindex ("wdw", var "j"), Index ("wdw", var "i"));
                      (Lvar "i", var "i" +: int 1);
                      (Lvar "j", var "j" +: int 1);
                    ] );
              ];
            Do
              [
                ( var "j" <: var "w",
                  assign_many
                    [
                      (Lindex ("wdw", var "j"), Bool_lit false);
                      (Lvar "j", var "j" +: int 1);
                    ] );
              ];
            (* the new right edge was just received *)
            Assign ([ Lindex ("wdw", var "w") ], [ Bool_lit true ]);
            after_deliver;
          ] );
    ]

let q_base_vars ~w ~bounds =
  [
    plain_var "wdw" (Value.Bool_array (Array.make w true));
    plain_var ~comment:"right edge of window, initially 0" "r" (Value.Int 0);
    local_var "s" (Value.Int 0);
    local_var "i" (Value.Int 0);
    local_var "j" (Value.Int 0);
    ghost_var "resets" (Value.Int 0);
    ghost_var "dlv" (Value.Bool_array (Array.make bounds.s_max false));
    ghost_var "dup" (Value.Bool false);
    ghost_var "max_dlv" (Value.Int 0);
  ]

let original_q_actions =
  [
    Receive
      {
        label = "rcv";
        from_ = "p";
        tag = "msg";
        binder = "s";
        guard = Bool_lit true;
        body = window_cases ~after_deliver:mark_delivered;
      };
    Guarded
      {
        label = "reset";
        guard = var "resets" <: var "max_resets";
        body =
          seq
            [
              assign "r" (int 0);
              assign "j" (int 1);
              Do
                [
                  ( var "j" <=: var "w",
                    assign_many
                      [ (Lindex ("wdw", var "j"), Bool_lit true); (Lvar "j", var "j" +: int 1) ]
                  );
                ];
              bump "resets";
            ];
      };
  ]

let original_q ?(bounds = default_bounds) ~w () =
  at_least_one "w" w;
  {
    name = "q";
    consts = [ ("w", w); ("max_resets", bounds.q_resets) ];
    vars = q_base_vars ~w ~bounds;
    actions = original_q_actions;
  }

(* ------------------------------------------------------------------ *)
(* Section 4: the protocol with SAVE and FETCH.

   Persistent memory is [pst]; [pend >= 0] is an in-flight background
   SAVE and becomes durable when the separate [save_done] action fires,
   so a reset may strike between them. [pend_wk] is the blocking wakeup
   SAVE, split across wakeup_begin/wakeup_done.

   Section 4 chooses K to be at least the number of messages sendable
   during one SAVE, so by the time a new SAVE begins the previous one
   has completed. The SAVE trigger encodes that timing assumption by
   retiring a pending save. *)

(* A SAVE is due once [x] is [k] past the last stored value. *)
let save_trigger ~x ~k =
  If
    [
      ( var x >=: (var k +: var "lst"),
        seq
          [
            If
              [
                (var "pend" >=: int 0, assign "pst" (var "pend"));
                (not_ (var "pend" >=: int 0), Skip);
              ];
            assign_many [ (Lvar "lst", var x); (Lvar "pend", var x) ];
          ] );
      (not_ (var x >=: (var k +: var "lst")), Skip);
    ]

let save_done =
  Guarded
    {
      label = "save_done";
      guard = var "pend" >=: int 0;
      body = seq [ assign "pst" (var "pend"); assign "pend" (int (-1)) ];
    }

let reset =
  Guarded
    {
      label = "reset";
      guard = var "resets" <: var "max_resets";
      body =
        seq
          [
            assign_many
              [
                (Lvar "wait", Bool_lit true);
                (Lvar "pend", int (-1));
                (Lvar "pend_wk", int (-1));
              ];
            bump "resets";
          ];
    }

(* FETCH, then begin the blocking SAVE of the fetched value plus the
   leap (the paper's leap is 2K). *)
let wakeup_begin =
  Guarded
    {
      label = "wakeup_begin";
      guard = var "wait" &&: (var "pend_wk" <: int 0);
      body = assign "pend_wk" (var "pst" +: var "leap");
    }

let wakeup_done ~resume =
  Guarded
    {
      label = "wakeup_done";
      guard = var "wait" &&: (var "pend_wk" >=: int 0);
      body =
        seq
          (resume
          @ [ assign_many [ (Lvar "pend_wk", int (-1)); (Lvar "wait", Bool_lit false) ] ]);
    }

let sync_vars ~initially =
  [
    plain_var ~comment:(Printf.sprintf "last stored, initially %d" initially) "lst"
      (Value.Int initially);
    plain_var ~comment:"initially false" "wait" (Value.Bool false);
    plain_var ~comment:"in-flight SAVE value, -1 if none" "pend" (Value.Int (-1));
    plain_var ~comment:"blocking wakeup SAVE, -1 if none" "pend_wk" (Value.Int (-1));
    plain_var ~comment:"persistent memory" "pst" (Value.Int initially);
  ]

(* Section 4: process p *)

let augmented_p_actions =
  [
    Guarded
      {
        label = "send";
        guard = not_ (var "wait") &&: (var "s" <=: var "s_max");
        body =
          seq
            [
              Send { dst = "q"; tag = "msg"; args = [ var "s" ] };
              track_max ~of_:(var "s") ~into:"max_sent";
              assign "s" (var "s" +: int 1);
              save_trigger ~x:"s" ~k:"Kp";
            ];
      };
    save_done;
    reset;
    wakeup_begin;
    wakeup_done
      ~resume:
        [
          assign_many
            [
              (Lvar "pst", var "pend_wk");
              (Lvar "s", var "pend_wk");
              (Lvar "lst", var "pend_wk");
            ];
          If
            [
              (var "s" <=: var "max_sent", assign "stale_resume" (Bool_lit true));
              (not_ (var "s" <=: var "max_sent"), Skip);
            ];
        ];
  ]

let augmented_p_vars =
  plain_var ~comment:"next to be sent, initially 1" "s" (Value.Int 1)
  :: sync_vars ~initially:1
  @ [
      ghost_var "resets" (Value.Int 0);
      ghost_var "max_sent" (Value.Int 0);
      ghost_var "stale_resume" (Value.Bool false);
    ]

let augmented_p ?(bounds = default_bounds) ?leap ~kp () =
  at_least_one "kp" kp;
  {
    name = "p";
    consts =
      [
        ("Kp", kp);
        ("leap", Option.value ~default:(2 * kp) leap);
        ("s_max", bounds.s_max);
        ("max_resets", bounds.p_resets);
      ];
    vars = augmented_p_vars;
    actions = augmented_p_actions;
  }

(* Section 4: process q. The robust receiver differs in one branch
   after a receive: it never lets the edge outrun durable state by more
   than the wakeup leap, completing the SAVE synchronously (a blocking
   write). *)

let augmented_q_actions ~after_receive =
  [
    Receive
      {
        label = "rcv";
        from_ = "p";
        tag = "msg";
        binder = "s";
        (* buffered while waiting: arrivals stay in the channel *)
        guard = not_ (var "wait");
        body = seq [ window_cases ~after_deliver:mark_delivered; after_receive ];
      };
    save_done;
    reset;
    wakeup_begin;
    wakeup_done
      ~resume:
        [
          assign_many
            [
              (Lvar "pst", var "pend_wk");
              (Lvar "r", var "pend_wk");
              (Lvar "lst", var "pend_wk");
            ];
          assign "i" (int 1);
          Do
            [
              ( var "i" <=: var "w",
                assign_many
                  [ (Lindex ("wdw", var "i"), Bool_lit true); (Lvar "i", var "i" +: int 1) ] );
            ];
          If
            [
              (var "r" <: var "max_dlv", assign "stale_edge" (Bool_lit true));
              (not_ (var "r" <: var "max_dlv"), Skip);
            ];
        ];
  ]

let paper_q_actions = augmented_q_actions ~after_receive:(save_trigger ~x:"r" ~k:"Kq")

let robust_q_actions =
  let outruns = var "r" >: (var "pst" +: var "leap") in
  augmented_q_actions
    ~after_receive:
      (If
         [
           ( outruns,
             assign_many
               [ (Lvar "pst", var "r"); (Lvar "lst", var "r"); (Lvar "pend", int (-1)) ] );
           (not_ outruns, save_trigger ~x:"r" ~k:"Kq");
         ])

(* q's variables past the window's ([q_base_vars]) *)
let augmented_q_vars = sync_vars ~initially:0 @ [ ghost_var "stale_edge" (Value.Bool false) ]

let augmented_q ?(bounds = default_bounds) ?(robust = false) ?leap ~kq ~w () =
  at_least_one "kq" kq;
  at_least_one "w" w;
  {
    name = "q";
    consts =
      [
        ("w", w);
        ("Kq", kq);
        ("leap", Option.value ~default:(2 * kq) leap);
        ("max_resets", bounds.q_resets);
      ];
    vars = q_base_vars ~w ~bounds @ augmented_q_vars;
    actions = (if robust then robust_q_actions else paper_q_actions);
  }

(* ------------------------------------------------------------------ *)
(* Invariants. Missing ghost variables (e.g. [stale_resume] in the
   original p) make a claim vacuously true. *)

let ghost_bool system ~proc ~var =
  match State.get_bool (System.state_of system proc) var with
  | b -> b
  | exception Not_found -> false

let discrimination_holds system = not (ghost_bool system ~proc:"q" ~var:"dup")

let sender_freshness_holds system =
  not (ghost_bool system ~proc:"p" ~var:"stale_resume")

let receiver_freshness_holds system =
  not (ghost_bool system ~proc:"q" ~var:"stale_edge")

let all_section5_invariants system =
  discrimination_holds system && sender_freshness_holds system
  && receiver_freshness_holds system

(* ------------------------------------------------------------------ *)
(* Each model compiled once; a build instantiates it. *)

let original_p_program = Interp.compile (original_p ())
let original_q_program = Interp.compile (original_q ~w:1 ())
let augmented_p_program = Interp.compile (augmented_p ~kp:1 ())
let paper_q_program = Interp.compile (augmented_q ~kq:1 ~w:1 ())
let robust_q_program = Interp.compile (augmented_q ~robust:true ~kq:1 ~w:1 ())

let original_system ?(bounds = default_bounds) ?capacity ?adversary ?lossy ~w () =
  System.create ?capacity ?adversary ?lossy
    [
      Interp.instantiate original_p_program (original_p ~bounds ());
      Interp.instantiate original_q_program (original_q ~bounds ~w ());
    ]

let augmented_system ?(bounds = default_bounds) ?capacity ?adversary ?lossy ?(robust = false)
    ?leap_p ?leap_q ~kp ~kq ~w () =
  System.create ?capacity ?adversary ?lossy
    [
      Interp.instantiate augmented_p_program (augmented_p ~bounds ?leap:leap_p ~kp ());
      Interp.instantiate
        (if robust then robust_q_program else paper_q_program)
        (augmented_q ~bounds ~robust ?leap:leap_q ~kq ~w ());
    ]
