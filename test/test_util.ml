(* Unit tests for the util substrate: Vec, Prng, Heap, Stats, Ring,
   Seqno, Hex. *)

open Resets_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_basics () =
  let v = Vec.create () in
  check_bool "empty" true (Vec.is_empty v);
  Vec.push v 1;
  Vec.push v 2;
  Vec.push v 3;
  check_int "length" 3 (Vec.length v);
  check_int "get 0" 1 (Vec.get v 0);
  check_int "get 2" 3 (Vec.get v 2);
  Vec.set v 1 9;
  check_int "set" 9 (Vec.get v 1);
  Alcotest.(check (option int)) "pop" (Some 3) (Vec.pop v);
  check_int "length after pop" 2 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 2));
  Alcotest.check_raises "get negative" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v (-1)))

let test_vec_growth () =
  let v = Vec.create () in
  for i = 1 to 1000 do
    Vec.push v i
  done;
  check_int "grew" 1000 (Vec.length v);
  check_int "first" 1 (Vec.get v 0);
  check_int "last" 1000 (Vec.get v 999);
  check_int "fold sum" 500500 (Vec.fold_left ( + ) 0 v)

let test_vec_iterators () =
  let v = Vec.of_list [ 3; 1; 2 ] in
  Alcotest.(check (list int)) "to_list" [ 3; 1; 2 ] (Vec.to_list v);
  Alcotest.(check (list int)) "map" [ 6; 2; 4 ] (Vec.to_list (Vec.map (( * ) 2) v));
  Alcotest.(check (list int)) "filter" [ 3; 2 ]
    (Vec.to_list (Vec.filter (fun x -> x >= 2) v));
  Vec.sort compare v;
  Alcotest.(check (list int)) "sort" [ 1; 2; 3 ] (Vec.to_list v);
  check_bool "exists" true (Vec.exists (fun x -> x = 2) v);
  check_bool "not exists" false (Vec.exists (fun x -> x = 7) v);
  let seen = ref [] in
  Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  Alcotest.(check int) "iteri count" 3 (List.length !seen)

let test_vec_clear () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Vec.clear v;
  check_bool "cleared" true (Vec.is_empty v);
  Vec.push v 7;
  check_int "reusable" 7 (Vec.get v 0)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  check_bool "different seeds differ" true (Prng.next_int64 a <> Prng.next_int64 b)

let test_prng_int_range () =
  let p = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int p 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int p 0))

let test_prng_int_in () =
  let p = Prng.create 9 in
  for _ = 1 to 500 do
    let v = Prng.int_in p (-5) 5 in
    check_bool "in closed range" true (v >= -5 && v <= 5)
  done

let test_prng_unit_float () =
  let p = Prng.create 11 in
  for _ = 1 to 1000 do
    let f = Prng.unit_float p in
    check_bool "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_prng_bernoulli_bias () =
  let p = Prng.create 13 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli p 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_bool "bernoulli ~0.3" true (rate > 0.27 && rate < 0.33)

let test_prng_exponential_mean () =
  let p = Prng.create 17 in
  let sum = ref 0. in
  let n = 50_000 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential p 2.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "exponential mean ~0.5" true (mean > 0.47 && mean < 0.53)

let test_prng_geometric () =
  let p = Prng.create 19 in
  check_int "geometric p=1 is 0" 0 (Prng.geometric p 1.0);
  for _ = 1 to 100 do
    check_bool "non-negative" true (Prng.geometric p 0.5 >= 0)
  done

let test_prng_shuffle_permutes () =
  let p = Prng.create 23 in
  let a = Array.init 50 Fun.id in
  let original = Array.copy a in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" original sorted

let test_prng_split_independent () =
  let p = Prng.create 29 in
  let a = Prng.split p in
  let b = Prng.split p in
  check_bool "split streams differ" true (Prng.next_int64 a <> Prng.next_int64 b)

let test_prng_choose () =
  let p = Prng.create 31 in
  let arr = [| "x"; "y"; "z" |] in
  for _ = 1 to 50 do
    check_bool "member" true (Array.mem (Prng.choose p arr) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choose: empty array")
    (fun () -> ignore (Prng.choose p [||]))

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.of_list ~cmp:compare [ 5; 1; 4; 2; 3 ] in
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 4; 5 ] (Heap.to_sorted_list h);
  (* to_sorted_list is non-destructive *)
  check_int "length preserved" 5 (Heap.length h)

let test_heap_pop () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h);
  Heap.add h 2;
  Heap.add h 1;
  Alcotest.(check (option int)) "peek" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop min" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop next" (Some 2) (Heap.pop h);
  check_bool "empty after" true (Heap.is_empty h)

let test_heap_duplicates () =
  let h = Heap.of_list ~cmp:compare [ 3; 1; 3; 1 ] in
  Alcotest.(check (list int)) "dups kept" [ 1; 1; 3; 3 ] (Heap.to_sorted_list h)

let heap_sort_property =
  QCheck.Test.make ~name:"heap drains any list in sorted order" ~count:200
    QCheck.(list int)
    (fun l ->
      let h = Heap.of_list ~cmp:compare l in
      Heap.to_sorted_list h = List.sort compare l)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_percentiles () =
  let s = Stats.Sample.create () in
  for i = 1 to 100 do
    Stats.Sample.add s (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "p50" 50.5 (Stats.Sample.percentile s 50.);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.Sample.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.Sample.percentile s 100.);
  Alcotest.(check (float 0.5)) "p90" 90.1 (Stats.Sample.percentile s 90.)

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_fifo () =
  let r = Ring.create 3 in
  check_bool "empty" true (Ring.is_empty r);
  Alcotest.(check (option int)) "push 1" None (Ring.push r 1);
  Alcotest.(check (option int)) "push 2" None (Ring.push r 2);
  Alcotest.(check (option int)) "push 3" None (Ring.push r 3);
  check_bool "full" true (Ring.is_full r);
  Alcotest.(check (option int)) "evicts oldest" (Some 1) (Ring.push r 4);
  Alcotest.(check (list int)) "contents" [ 2; 3; 4 ] (Ring.to_list r);
  Alcotest.(check (option int)) "oldest" (Some 2) (Ring.peek_oldest r);
  Alcotest.(check (option int)) "newest" (Some 4) (Ring.peek_newest r);
  Alcotest.(check (option int)) "pop oldest" (Some 2) (Ring.pop_oldest r);
  check_int "length" 2 (Ring.length r)

let test_ring_wraparound () =
  let r = Ring.create 2 in
  for i = 1 to 10 do
    ignore (Ring.push r i)
  done;
  Alcotest.(check (list int)) "last two" [ 9; 10 ] (Ring.to_list r)

let test_ring_nth_fold () =
  let r = Ring.create 3 in
  List.iter (fun i -> ignore (Ring.push r i)) [ 1; 2; 3; 4; 5 ];
  (* head has wrapped: retained = [3; 4; 5] *)
  Alcotest.(check (option int)) "nth 0" (Some 3) (Ring.nth r 0);
  Alcotest.(check (option int)) "nth 2" (Some 5) (Ring.nth r 2);
  Alcotest.(check (option int)) "nth oob" None (Ring.nth r 3);
  Alcotest.(check (option int)) "nth negative" None (Ring.nth r (-1));
  check_int "fold sum" 12 (Ring.fold ( + ) 0 r);
  Alcotest.(check (list int)) "fold order matches to_list" (Ring.to_list r)
    (List.rev (Ring.fold (fun acc x -> x :: acc) [] r))

let test_ring_clear () =
  let r = Ring.create 2 in
  ignore (Ring.push r 1);
  Ring.clear r;
  check_bool "cleared" true (Ring.is_empty r);
  Alcotest.(check (option int)) "pop after clear" None (Ring.pop_oldest r)

let test_ring_invalid () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create 0))

(* The model: a bounded FIFO as a list, oldest first. *)
type ring_op =
  | Push of int
  | Pop
  | Nth of int
  | Peek_oldest
  | Peek_newest
  | Fold
  | Iter
  | Clear

let show_ring_op = function
  | Push x -> Printf.sprintf "push %d" x
  | Pop -> "pop"
  | Nth i -> Printf.sprintf "nth %d" i
  | Peek_oldest -> "peek_oldest"
  | Peek_newest -> "peek_newest"
  | Fold -> "fold"
  | Iter -> "iter"
  | Clear -> "clear"

(* Pushes dominate and clears are rare, so many streams fill rings of
   up to 300 slots, crossing every doubling of the storage on the way,
   and then evict. *)
let ring_op_gen =
  QCheck.Gen.(
    frequency
      [
        (400, map (fun x -> Push x) small_nat);
        (40, return Pop);
        (20, map (fun i -> Nth i) (int_range (-2) 302));
        (6, return Peek_oldest);
        (6, return Peek_newest);
        (6, return Fold);
        (6, return Iter);
        (1, return Clear);
      ])

let rec last = function [] -> None | [ x ] -> Some x | _ :: tl -> last tl

let ring_matches_bounded_list =
  QCheck.Test.make ~name:"ring == bounded FIFO list" ~count:200
    QCheck.(
      pair (int_range 1 300)
        (make
           ~print:(fun ops -> String.concat "; " (List.map show_ring_op ops))
           Gen.(list_size (int_range 1 1200) ring_op_gen)))
    (fun (cap, ops) ->
      let r = Ring.create cap and model = ref [] in
      let step = function
        | Push x ->
          let evicted, kept =
            if List.length !model = cap then
              (Some (List.hd !model), List.tl !model @ [ x ])
            else (None, !model @ [ x ])
          in
          model := kept;
          Ring.push r x = evicted
        | Pop -> (
          let got = Ring.pop_oldest r in
          match !model with
          | [] -> got = None
          | x :: tl ->
            model := tl;
            got = Some x)
        | Nth i -> Ring.nth r i = if i < 0 then None else List.nth_opt !model i
        | Peek_oldest -> Ring.peek_oldest r = List.nth_opt !model 0
        | Peek_newest -> Ring.peek_newest r = last !model
        | Fold -> Ring.fold (fun acc x -> x :: acc) [] r = List.rev !model
        | Iter ->
          let seen = ref [] in
          Ring.iter (fun x -> seen := x :: !seen) r;
          List.rev !seen = !model && Ring.to_list r = !model
        | Clear ->
          Ring.clear r;
          model := [];
          true
      in
      List.for_all
        (fun op ->
          step op
          && Ring.length r = List.length !model
          && Ring.capacity r = cap
          && Ring.is_empty r = (!model = [])
          && Ring.is_full r = (List.length !model = cap))
        ops)

(* ------------------------------------------------------------------ *)
(* Slice *)

let check_str = Alcotest.(check string)

let test_slice_views () =
  let s = Slice.of_string "hello world" in
  check_int "length" 11 (Slice.length s);
  Alcotest.(check char) "get" 'e' (Slice.get s 1);
  let w = Slice.sub s ~off:6 ~len:5 in
  check_str "sub to_string" "world" (Slice.to_string w);
  check_bool "equal_string" true (Slice.equal_string w "world");
  check_bool "content mismatch" false (Slice.equal_string w "worle");
  check_bool "length mismatch" false (Slice.equal_string w "worl");
  let dst = Bytes.make 7 '.' in
  Slice.blit w dst ~dst_off:1;
  check_str "blit" ".world." (Bytes.to_string dst);
  check_int "empty sub" 0 (Slice.length (Slice.sub s ~off:11 ~len:0))

let test_slice_aliases_storage () =
  (* a slice is a view, not a copy: mutating the base shows through *)
  let b = Bytes.of_string "abcdef" in
  let s = Slice.make b ~off:2 ~len:3 in
  check_str "before" "cde" (Slice.to_string s);
  Bytes.set b 3 'X';
  check_str "after base mutation" "cXe" (Slice.to_string s);
  Alcotest.(check char) "get sees mutation" 'X' (Slice.get s 1);
  check_str "of_bytes whole buffer" "abXdef"
    (Slice.to_string (Slice.of_bytes (Bytes.of_string "abXdef")))

let test_slice_bounds () =
  let b = Bytes.of_string "abc" in
  Alcotest.check_raises "make oob" (Invalid_argument "Slice.make: out of bounds")
    (fun () -> ignore (Slice.make b ~off:2 ~len:2));
  Alcotest.check_raises "make negative" (Invalid_argument "Slice.make: out of bounds")
    (fun () -> ignore (Slice.make b ~off:(-1) ~len:1));
  Alcotest.check_raises "of_sub_string oob"
    (Invalid_argument "Slice.of_sub_string: out of bounds") (fun () ->
      ignore (Slice.of_sub_string "abc" ~off:1 ~len:3));
  let s = Slice.make b ~off:1 ~len:2 in
  Alcotest.check_raises "sub oob" (Invalid_argument "Slice.sub: out of bounds")
    (fun () -> ignore (Slice.sub s ~off:1 ~len:2));
  Alcotest.check_raises "get oob" (Invalid_argument "Slice.get: index out of bounds")
    (fun () -> ignore (Slice.get s 2))

let slice_sub_matches_string_sub =
  QCheck.Test.make ~name:"Slice.of_sub_string/to_string matches String.sub" ~count:200
    QCheck.(triple string small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = a mod (n + 1) in
      let len = if n = off then 0 else b mod (n - off + 1) in
      Slice.to_string (Slice.of_sub_string s ~off ~len) = String.sub s off len
      && Slice.equal_string (Slice.of_sub_string s ~off ~len) (String.sub s off len))

(* ------------------------------------------------------------------ *)
(* Seqno *)

let test_seqno_cases () =
  (* window [r-w+1 .. r] with r=10, w=4: in-window = 7,8,9,10 *)
  check_bool "6 stale" true (Seqno.is_stale ~right:10 ~w:4 6);
  check_bool "7 not stale" false (Seqno.is_stale ~right:10 ~w:4 7);
  check_bool "7 in window" true (Seqno.in_window ~right:10 ~w:4 7);
  check_bool "10 in window" true (Seqno.in_window ~right:10 ~w:4 10);
  check_bool "11 not in window" false (Seqno.in_window ~right:10 ~w:4 11);
  check_bool "11 beyond" true (Seqno.beyond ~right:10 11);
  check_bool "10 not beyond" false (Seqno.beyond ~right:10 10)

let test_seqno_index () =
  (* paper: i = s - r + w, 1-based *)
  check_int "left edge index" 1 (Seqno.window_index ~right:10 ~w:4 7);
  check_int "right edge index" 4 (Seqno.window_index ~right:10 ~w:4 10);
  Alcotest.check_raises "stale index"
    (Invalid_argument "Seqno.window_index: sequence number not in window") (fun () ->
      ignore (Seqno.window_index ~right:10 ~w:4 6))

let test_seqno_partition_property () =
  (* every s falls in exactly one of the three cases *)
  for s = -5 to 30 do
    let stale = Seqno.is_stale ~right:10 ~w:4 s in
    let inw = Seqno.in_window ~right:10 ~w:4 s in
    let beyond = Seqno.beyond ~right:10 s in
    check_int
      (Printf.sprintf "exactly one case for %d" s)
      1
      (List.length (List.filter Fun.id [ stale; inw; beyond ]))
  done

let test_seqno_gap () =
  check_int "gap" 50 (Seqno.gap ~fetched:100 ~lost_at:150)

(* ------------------------------------------------------------------ *)
(* Hex *)

let test_hex_known () =
  Alcotest.(check string) "encode" "00ff10" (Hex.encode "\x00\xff\x10");
  Alcotest.(check string) "decode" "\x00\xff\x10" (Hex.decode "00ff10");
  Alcotest.(check string) "decode uppercase" "\xab" (Hex.decode "AB")

let test_hex_errors () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.decode: non-hex character")
    (fun () -> ignore (Hex.decode "zz"))

let hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 QCheck.string (fun s ->
      Hex.decode (Hex.encode s) = s)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "growth" `Quick test_vec_growth;
          Alcotest.test_case "iterators" `Quick test_vec_iterators;
          Alcotest.test_case "clear" `Quick test_vec_clear;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int_in range" `Quick test_prng_int_in;
          Alcotest.test_case "unit float range" `Quick test_prng_unit_float;
          Alcotest.test_case "bernoulli bias" `Quick test_prng_bernoulli_bias;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "geometric" `Quick test_prng_geometric;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "choose" `Quick test_prng_choose;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "pop" `Quick test_heap_pop;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          qt heap_sort_property;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
        ] );
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "nth/fold after wrap" `Quick test_ring_nth_fold;
          Alcotest.test_case "clear" `Quick test_ring_clear;
          Alcotest.test_case "invalid" `Quick test_ring_invalid;
          qt ring_matches_bounded_list;
        ] );
      ( "slice",
        [
          Alcotest.test_case "views" `Quick test_slice_views;
          Alcotest.test_case "aliases storage" `Quick test_slice_aliases_storage;
          Alcotest.test_case "bounds" `Quick test_slice_bounds;
          qt slice_sub_matches_string_sub;
        ] );
      ( "seqno",
        [
          Alcotest.test_case "three cases" `Quick test_seqno_cases;
          Alcotest.test_case "window index" `Quick test_seqno_index;
          Alcotest.test_case "case partition" `Quick test_seqno_partition_property;
          Alcotest.test_case "gap" `Quick test_seqno_gap;
        ] );
      ( "hex",
        [
          Alcotest.test_case "known vectors" `Quick test_hex_known;
          Alcotest.test_case "errors" `Quick test_hex_errors;
          qt hex_roundtrip;
        ] );
    ]
