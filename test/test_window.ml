(* Anti-replay window tests: the paper's Section 2 three-case rule, run
   on the executable spec (the paper's own array, below) and on the
   production arena window; the qcheck properties that the two agree on
   any stream of operations; and the arena behaviours only the
   production window has. *)

open Resets_util
open Resets_ipsec
open Replay_window

let verdict = Alcotest.testable pp_verdict equal_verdict
let check_verdict = Alcotest.check verdict
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* The spec: a transliteration of the paper's process q. wdw : array
   [1..w] of boolean (0-based here), right edge r, and the two shift
   loops of the [r < s] case executed literally. *)

module Paper = struct
  type t = {
    wdw : bool array;
    mutable r : Seqno.t;
  }

  let create ~w =
    if w <= 0 then invalid_arg "Paper.create: w must be positive";
    { wdw = Array.make w true; r = Seqno.zero }

  let w t = Array.length t.wdw

  let right_edge t = t.r

  let check t s =
    let w = w t in
    if Seqno.is_stale ~right:t.r ~w s then Reject_stale
    else if Seqno.in_window ~right:t.r ~w s then
      if t.wdw.(Seqno.window_index ~right:t.r ~w s - 1) then Reject_duplicate
      else Accept_in_window
    else Accept_new

  let slide t s =
    (* The paper's two loops:
         r, i, j := s, s - r + 1, 1;
         do i <= w -> wdw[j], i, j := wdw[i], i + 1, j + 1 od;
         do j < w  -> wdw[j], j := false, j + 1 od
       followed by marking the new right edge as received (the loops
       preserve the invariant wdw[w] = true because r only ever advances
       to a sequence number that was just accepted). *)
    let w = w t in
    let i = ref (s - t.r + 1) and j = ref 1 in
    t.r <- s;
    while !i <= w do
      t.wdw.(!j - 1) <- t.wdw.(!i - 1);
      incr i;
      incr j
    done;
    while !j < w do
      t.wdw.(!j - 1) <- false;
      incr j
    done;
    t.wdw.(w - 1) <- true

  let admit t s =
    match check t s with
    | Reject_stale -> Reject_stale
    | Reject_duplicate -> Reject_duplicate
    | Accept_in_window ->
      t.wdw.(Seqno.window_index ~right:t.r ~w:(w t) s - 1) <- true;
      Accept_in_window
    | Accept_new ->
      slide t s;
      Accept_new

  let volatile_reset t =
    t.r <- Seqno.zero;
    Array.fill t.wdw 0 (Array.length t.wdw) true

  let resume_at t s =
    t.r <- s;
    Array.fill t.wdw 0 (Array.length t.wdw) true

  let seen t s =
    let w = w t in
    if Seqno.is_stale ~right:t.r ~w s then true
    else if Seqno.in_window ~right:t.r ~w s then
      t.wdw.(Seqno.window_index ~right:t.r ~w s - 1)
    else false
end

module type WINDOW = sig
  type t

  val create : w:int -> t
  val w : t -> int
  val right_edge : t -> Seqno.t
  val check : t -> Seqno.t -> verdict
  val admit : t -> Seqno.t -> verdict
  val volatile_reset : t -> unit
  val resume_at : t -> Seqno.t -> unit
  val seen : t -> Seqno.t -> bool
end

(* The production window (the RFC 6479 blocked bitmap) in a private
   arena, as the daemon and the single-SA harness run it. *)
module Block = struct
  include Replay_window

  let create = create_private
end

(* Run a case on the spec and on the production window. *)
let both name (f : (module WINDOW) -> unit) =
  [
    Alcotest.test_case (name ^ " [paper]") `Quick (fun () -> f (module Paper));
    Alcotest.test_case (name ^ " [block]") `Quick (fun () -> f (module Block));
  ]

let test_initial_state (module W : WINDOW) =
  let w = W.create ~w:8 in
  check_int "width" 8 (W.w w);
  check_int "right edge 0" 0 (W.right_edge w);
  (* initially every slot is marked seen (the paper's init) but the
     window covers only non-positive numbers, so any s >= 1 is new *)
  check_verdict "1 is new" Accept_new (W.check w 1);
  check_verdict "100 is new" Accept_new (W.check w 100)

let test_in_order_acceptance (module W : WINDOW) =
  let w = W.create ~w:4 in
  for s = 1 to 20 do
    check_verdict (Printf.sprintf "accept %d" s) Accept_new (W.admit w s)
  done;
  check_int "edge follows" 20 (W.right_edge w)

let test_duplicate_rejection (module W : WINDOW) =
  let w = W.create ~w:4 in
  ignore (W.admit w 5);
  check_verdict "replay of edge" Reject_duplicate (W.admit w 5)

let test_out_of_order_within_window (module W : WINDOW) =
  let w = W.create ~w:4 in
  ignore (W.admit w 10);
  (* window now covers 7..10 *)
  check_verdict "9 first time" Accept_in_window (W.admit w 9);
  check_verdict "9 second time" Reject_duplicate (W.admit w 9);
  check_verdict "7 first time" Accept_in_window (W.admit w 7);
  check_verdict "6 stale" Reject_stale (W.admit w 6);
  check_int "edge unchanged" 10 (W.right_edge w)

let test_stale_rejection (module W : WINDOW) =
  let w = W.create ~w:4 in
  ignore (W.admit w 100);
  check_verdict "96 stale (= r - w)" Reject_stale (W.admit w 96);
  check_verdict "1 stale" Reject_stale (W.admit w 1);
  check_verdict "97 in window" Accept_in_window (W.admit w 97)

let test_slide_clears_skipped_slots (module W : WINDOW) =
  let w = W.create ~w:4 in
  ignore (W.admit w 1);
  ignore (W.admit w 2);
  (* jump: 3..9 were never received *)
  check_verdict "10 new" Accept_new (W.admit w 10);
  (* 7,8,9 entered the window unseen *)
  check_verdict "9 acceptable" Accept_in_window (W.admit w 9);
  check_verdict "8 acceptable" Accept_in_window (W.admit w 8);
  check_verdict "7 acceptable" Accept_in_window (W.admit w 7);
  check_verdict "6 stale" Reject_stale (W.admit w 6)

let test_slide_preserves_recent_history (module W : WINDOW) =
  let w = W.create ~w:4 in
  ignore (W.admit w 1);
  ignore (W.admit w 2);
  ignore (W.admit w 3);
  (* slide by one: window 1..4; 2 and 3 must still read as seen *)
  ignore (W.admit w 4);
  check_verdict "3 duplicate" Reject_duplicate (W.admit w 3);
  check_verdict "2 duplicate" Reject_duplicate (W.admit w 2);
  check_verdict "1 duplicate" Reject_duplicate (W.admit w 1)

let test_jump_beyond_window (module W : WINDOW) =
  let w = W.create ~w:4 in
  ignore (W.admit w 3);
  ignore (W.admit w 1000);
  check_verdict "999 unseen in window" Accept_in_window (W.admit w 999);
  check_verdict "996 stale" Reject_stale (W.admit w 996);
  check_verdict "1000 dup" Reject_duplicate (W.admit w 1000)

let test_w1_window (module W : WINDOW) =
  let w = W.create ~w:1 in
  check_verdict "1" Accept_new (W.admit w 1);
  check_verdict "1 dup" Reject_duplicate (W.admit w 1);
  check_verdict "3" Accept_new (W.admit w 3);
  check_verdict "2 stale" Reject_stale (W.admit w 2)

let test_check_does_not_mutate (module W : WINDOW) =
  let w = W.create ~w:4 in
  ignore (W.admit w 5);
  check_verdict "check 6" Accept_new (W.check w 6);
  check_int "edge unchanged by check" 5 (W.right_edge w);
  check_verdict "6 still new" Accept_new (W.admit w 6)

let test_volatile_reset (module W : WINDOW) =
  let w = W.create ~w:4 in
  ignore (W.admit w 50);
  W.volatile_reset w;
  check_int "edge forgotten" 0 (W.right_edge w);
  (* Section 3: any replayed old message is now accepted *)
  check_verdict "old 10 accepted (the vulnerability)" Accept_new (W.admit w 10)

let test_resume_at (module W : WINDOW) =
  let w = W.create ~w:4 in
  ignore (W.admit w 50);
  W.volatile_reset w;
  W.resume_at w 60;
  check_int "edge recovered + leap" 60 (W.right_edge w);
  (* everything at or below the resumed edge is assumed seen *)
  check_verdict "59 dup" Reject_duplicate (W.admit w 59);
  check_verdict "60 dup" Reject_duplicate (W.admit w 60);
  check_verdict "50 stale" Reject_stale (W.admit w 50);
  check_verdict "61 new" Accept_new (W.admit w 61)

let test_seen (module W : WINDOW) =
  let w = W.create ~w:4 in
  ignore (W.admit w 10);
  ignore (W.admit w 8);
  check_bool "8 seen" true (W.seen w 8);
  check_bool "9 unseen" false (W.seen w 9);
  check_bool "stale counts as seen" true (W.seen w 1);
  check_bool "beyond is unseen" false (W.seen w 11)

let test_invalid_width (module W : WINDOW) =
  match W.create ~w:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "w = 0 accepted"

(* ------------------------------------------------------------------ *)
(* Spec equivalence: on any stream of admits, resets and resumes, the
   production window gives the spec's verdicts and ends every step in
   the spec's state (edge and seen-marks), in a private arena or
   interleaved with a neighbour in a shared one. Admits are drawn
   relative to the current edge so every case of the rule comes up:
   jumps past the ring, numbers in and below the window, duplicates. *)

type op = Ahead of int | Behind of int | At of int | Reset | Resume of int

let show_op = function
  | Ahead d -> Printf.sprintf "+%d" d
  | Behind d -> Printf.sprintf "-%d" d
  | At s -> Printf.sprintf "at %d" s
  | Reset -> "reset"
  | Resume r -> Printf.sprintf "resume %d" r

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun d -> Ahead d) (int_range 1 1_000));
        (6, map (fun d -> Behind d) (int_range 0 140));
        (1, return Reset);
        (1, map (fun r -> Resume r) (int_range 0 2_000));
      ])

let ops_arb ?(len = 80) gen =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(list_size (int_range 1 len) gen)

(* The numbers from just below the window to just past its edge. *)
let around ~right ~w = List.init (w + 3) (fun i -> right - w - 1 + i)

let same_state (spec, win) =
  let r = Paper.right_edge spec and w = Paper.w spec in
  r = right_edge win
  && List.for_all (fun s -> Paper.seen spec s = seen win s) (around ~right:r ~w)

let step (spec, win) op =
  let both s = equal_verdict (Paper.admit spec s) (admit win s) in
  match op with
  | Ahead d -> both (Paper.right_edge spec + d)
  | Behind d -> both (Paper.right_edge spec - d)
  | At s -> both s
  | Reset ->
    Paper.volatile_reset spec;
    volatile_reset win;
    true
  | Resume r ->
    Paper.resume_at spec r;
    resume_at win r;
    true

let window_matches_spec =
  QCheck.Test.make ~name:"window == paper spec on any op stream" ~count:500
    QCheck.(triple (int_range 1 130) bool (ops_arb op_gen))
    (fun (width, shared, ops) ->
      let pairs =
        if shared then
          (* two windows in one arena that grows to hold the second *)
          let arena = Sadb_flat.create ~capacity:1 ~w:width () in
          Array.init 2 (fun _ ->
              (Paper.create ~w:width, create (Flat_impl arena) ~w:width))
        else [| (Paper.create ~w:width, create_private ~w:width) |]
      in
      let next = ref 0 in
      List.for_all
        (fun op ->
          let p = pairs.(!next mod Array.length pairs) in
          incr next;
          step p op && same_state p)
        ops
      && Array.for_all same_state pairs)

(* Two narrower streams the property above draws only rarely: forward
   jumps past the ring, each followed by revisits at the edge, mid-window
   and just below it; and absolute admits mixed with resets and resumes
   on windows of at most 8, where almost every number collides. *)
let huge_jumps_property =
  QCheck.Test.make ~name:"block window agrees across huge jumps" ~count:300
    QCheck.(
      pair (int_range 1 130)
        (list_of_size Gen.(int_range 1 40) (int_range 1 1_000)))
    (fun (width, deltas) ->
      let p = (Paper.create ~w:width, create_private ~w:width) in
      let s = ref 0 in
      List.for_all
        (fun d ->
          s := !s + d;
          List.for_all
            (fun x -> x < 1 || (step p (At x) && same_state p))
            [ !s; !s - 1; !s - (width / 2); !s - width; !s - width - 1 ])
        deltas)

let resets_property =
  QCheck.Test.make
    ~name:"equivalence holds across volatile_reset and resume_at" ~count:300
    QCheck.(
      pair (int_range 1 8)
        (ops_arb ~len:60
           Gen.(
             oneof
               [
                 map (fun s -> At s) (int_range 1 40);
                 return Reset;
                 map (fun r -> Resume r) (int_range 0 50);
               ])))
    (fun (width, ops) ->
      let p = (Paper.create ~w:width, create_private ~w:width) in
      List.for_all (fun op -> step p op && same_state p) ops)

(* Discrimination: no sequence number is ever accepted twice, whatever
   the arrival order (without resets). *)
let discrimination_property =
  QCheck.Test.make ~name:"window never accepts the same number twice" ~count:500
    QCheck.(pair (int_range 1 16) (list_of_size Gen.(int_range 1 100) (int_range 1 50)))
    (fun (width, seqs) ->
      let w = create_private ~w:width in
      let accepted = Hashtbl.create 16 in
      List.for_all
        (fun s ->
          if verdict_accepts (admit w s) then
            if Hashtbl.mem accepted s then false
            else begin
              Hashtbl.add accepted s ();
              true
            end
          else true)
        seqs)

(* w-Delivery (Section 2): with reorder degree < w and no loss, every
   message is delivered exactly once. *)
let w_delivery_property =
  QCheck.Test.make ~name:"w-delivery: reorder < w loses nothing" ~count:300
    QCheck.(pair (int_range 2 32) (int_range 10 200))
    (fun (width, n) ->
      (* Reverse disjoint blocks of size w: within a block the first
         element is overtaken by the following w-1 — a reorder of
         degree w-1 < w, the worst the window must tolerate. *)
      let arr = Array.init n (fun i -> i + 1) in
      let i = ref 0 in
      while !i + width <= n do
        for j = 0 to (width / 2) - 1 do
          let x = arr.(!i + j) in
          arr.(!i + j) <- arr.(!i + width - 1 - j);
          arr.(!i + width - 1 - j) <- x
        done;
        i := !i + width
      done;
      let w = create_private ~w:width in
      Array.for_all (fun s -> verdict_accepts (admit w s)) arr)

(* ------------------------------------------------------------------ *)
(* Arena behaviours: slot independence, growth, the epoch diagnostic,
   and SA counter co-location. *)

(* A window in a shared arena, at a slot other than the first, against
   the same window in a private arena (the "block" window): the slot's
   offsets must make no difference to any verdict or state. *)
let flat_agrees_with_block =
  QCheck.Test.make
    ~name:"flat == block window across admits, resets and resumes" ~count:400
    QCheck.(pair (int_range 1 130) (ops_arb op_gen))
    (fun (width, ops) ->
      let arena = Sadb_flat.create ~capacity:1 ~w:width () in
      let _first = create (Flat_impl arena) ~w:width in
      let flat = create (Flat_impl arena) ~w:width
      and block = create_private ~w:width in
      let apply win = function
        | Ahead d -> Some (admit win (right_edge win + d))
        | Behind d -> Some (admit win (right_edge win - d))
        | At s -> Some (admit win s)
        | Reset ->
          volatile_reset win;
          None
        | Resume r ->
          resume_at win r;
          None
      in
      List.for_all
        (fun op ->
          let vb = apply block op in
          Option.equal equal_verdict vb (apply flat op)
          && right_edge block = right_edge flat
          && List.for_all
               (fun s -> seen block s = seen flat s)
               (around ~right:(right_edge block) ~w:width))
        ops)

(* Two windows in one arena must not share state: interleaved admits on
   neighbouring slots behave exactly like two separate spec windows. *)
let test_flat_slot_independence () =
  let arena = Sadb_flat.create ~w:8 () in
  let f1 = create (Flat_impl arena) ~w:8 and f2 = create (Flat_impl arena) ~w:8 in
  let p1 = Paper.create ~w:8 and p2 = Paper.create ~w:8 in
  let seqs1 = [ 1; 2; 5; 3; 3; 40; 38; 2 ] and seqs2 = [ 7; 7; 1; 90; 88 ] in
  List.iteri
    (fun i s ->
      check_verdict
        (Printf.sprintf "w1 step %d" i)
        (Paper.admit p1 s) (admit f1 s);
      (* interleave: drive the second window between first-window steps *)
      List.iteri
        (fun j s2 ->
          if j = i mod List.length seqs2 then
            check_verdict
              (Printf.sprintf "w2 step %d.%d" i j)
              (Paper.admit p2 s2) (admit f2 s2))
        seqs2)
    seqs1;
  check_int "w1 edge" (Paper.right_edge p1) (right_edge f1);
  check_int "w2 edge" (Paper.right_edge p2) (right_edge f2)

(* Arena growth (alloc beyond capacity) must preserve live slots. *)
let test_flat_growth_preserves_state () =
  let arena = Sadb_flat.create ~capacity:1 ~w:4 () in
  let f = create (Flat_impl arena) ~w:4 in
  ignore (admit f 10);
  ignore (admit f 8);
  (* force several doublings *)
  let others = List.init 9 (fun _ -> create (Flat_impl arena) ~w:4) in
  check_bool "grew" true (Sadb_flat.capacity arena >= 10);
  check_int "edge survives growth" 10 (right_edge f);
  check_bool "8 still seen" true (seen f 8);
  check_bool "9 still unseen" false (seen f 9);
  List.iteri
    (fun i o -> check_int (Printf.sprintf "fresh slot %d edge" i) 0 (right_edge o))
    others

let test_flat_epoch_counts_resets () =
  let arena = Sadb_flat.create ~w:4 () in
  let f = create (Flat_impl arena) ~w:4 in
  check_int "fresh epoch" 0 (Sadb_flat.epoch arena (slot f));
  volatile_reset f;
  resume_at f 50;
  volatile_reset f;
  check_int "three resets/resumes" 3 (Sadb_flat.epoch arena (slot f))

(* Every SA keeps its sequence counter in its window's slot: in the
   shared arena it was given, or else in a private one. *)
let test_flat_sa_colocation () =
  let arena = Sadb_flat.create ~w:64 () in
  let shared = Sa.create (Sa.derive_params ~arena ~spi:0x99l ~secret:"flat-colocation" ())
  and alone = Sa.create (Sa.derive_params ~spi:0x9al ~secret:"flat-colocation" ()) in
  check_bool "same arena" true (shared.Sa.hot == arena);
  List.iter
    (fun (name, sa) ->
      let hot = sa.Sa.hot and slot = sa.Sa.slot in
      check_int (name ^ ": window in the SA's slot") slot (Replay_window.slot sa.Sa.window);
      check_int (name ^ ": seq starts at 1") 1 (Sa.send_seq sa);
      check_int (name ^ ": first take") 1 (Sa.next_send_seq sa);
      check_int (name ^ ": second take") 2 (Sa.next_send_seq sa);
      check_int (name ^ ": arena sees the counter") 3 (Sadb_flat.send_seq hot slot);
      check_int (name ^ ": arena sees packets_sent") 2 (Sadb_flat.packets_sent hot slot);
      Sa.note_received sa;
      check_int (name ^ ": arena sees packets_received") 1
        (Sadb_flat.packets_received hot slot))
    [ ("shared", shared); ("private", alone) ]

let test_flat_width_mismatch () =
  let arena = Sadb_flat.create ~w:8 () in
  Alcotest.check_raises "arena width must match"
    (Invalid_argument
       "Replay_window.create: Flat_impl arena was provisioned for a different \
        window width")
    (fun () -> ignore (create (Flat_impl arena) ~w:16))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "window"
    [
      ( "semantics",
        List.concat
          [
            both "initial state" test_initial_state;
            both "in-order acceptance" test_in_order_acceptance;
            both "duplicate rejection" test_duplicate_rejection;
            both "out-of-order in window" test_out_of_order_within_window;
            both "stale rejection" test_stale_rejection;
            both "slide clears skipped" test_slide_clears_skipped_slots;
            both "slide preserves history" test_slide_preserves_recent_history;
            both "jump beyond window" test_jump_beyond_window;
            both "w=1" test_w1_window;
            both "check is pure" test_check_does_not_mutate;
            both "volatile reset" test_volatile_reset;
            both "resume_at" test_resume_at;
            both "seen" test_seen;
            both "invalid width" test_invalid_width;
          ] );
      ( "flat",
        [
          Alcotest.test_case "slot independence" `Quick
            test_flat_slot_independence;
          Alcotest.test_case "growth preserves state" `Quick
            test_flat_growth_preserves_state;
          Alcotest.test_case "epoch counts resets" `Quick
            test_flat_epoch_counts_resets;
          Alcotest.test_case "sa counter co-location" `Quick
            test_flat_sa_colocation;
          Alcotest.test_case "width mismatch rejected" `Quick
            test_flat_width_mismatch;
          qt flat_agrees_with_block;
        ] );
      ( "properties",
        [
          qt window_matches_spec;
          qt huge_jumps_property;
          qt resets_property;
          qt discrimination_property;
          qt w_delivery_property;
        ] );
    ]
