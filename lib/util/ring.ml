type 'a t = {
  mutable data : 'a array;
      (* [||] until the first push, then doubled from [initial_slots]
         up to [bound]; slots outside the live range hold copies of
         elements pushed earlier *)
  bound : int;
  mutable head : int; (* index of oldest element *)
  mutable size : int;
}

let initial_slots = 16

let create capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { data = [||]; bound = capacity; head = 0; size = 0 }

let capacity t = t.bound

let length t = t.size

let is_empty t = t.size = 0

let is_full t = t.size = t.bound

(* Index of the [i]-th element, oldest first; [i < Array.length t.data]. *)
let slot t i =
  let j = t.head + i in
  if j >= Array.length t.data then j - Array.length t.data else j

(* Only called while the ring is below its bound and its storage is
   full: the elements move, oldest first, to the start of storage
   twice as large ([x], the element being pushed, fills the rest). *)
let grow t x =
  let slots = min t.bound (max initial_slots (2 * Array.length t.data)) in
  let data = Array.make slots x in
  for i = 0 to t.size - 1 do
    data.(i) <- t.data.(slot t i)
  done;
  t.data <- data;
  t.head <- 0

let push t x =
  if t.size < t.bound then begin
    if t.size = Array.length t.data then grow t x;
    t.data.(slot t t.size) <- x;
    t.size <- t.size + 1;
    None
  end
  else begin
    let evicted = t.data.(t.head) in
    t.data.(t.head) <- x;
    t.head <- slot t 1;
    Some evicted
  end

let peek_oldest t = if t.size = 0 then None else Some t.data.(t.head)

let peek_newest t = if t.size = 0 then None else Some t.data.(slot t (t.size - 1))

let clear t =
  t.data <- [||];
  t.head <- 0;
  t.size <- 0

let pop_oldest t =
  if t.size = 0 then None
  else begin
    let x = t.data.(t.head) in
    if t.size = 1 then clear t
    else begin
      (* the vacated slot takes a live element, so it does not keep
         [x] reachable *)
      t.data.(t.head) <- t.data.(slot t (t.size - 1));
      t.head <- slot t 1;
      t.size <- t.size - 1
    end;
    Some x
  end

let nth t i = if i < 0 || i >= t.size then None else Some t.data.(slot t i)

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(slot t i)
  done;
  !acc

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(slot t i)
  done

let to_list t =
  let acc = ref [] in
  for i = t.size - 1 downto 0 do
    acc := t.data.(slot t i) :: !acc
  done;
  !acc
