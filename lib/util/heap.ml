type 'a t = {
  cmp : 'a -> 'a -> int;
  data : 'a Vec.t;
}

let create ~cmp = { cmp; data = Vec.create () }

let create_sized ~capacity ~cmp = { cmp; data = Vec.create ~capacity () }

let length h = Vec.length h.data

let is_empty h = Vec.is_empty h.data

let swap h i j =
  let tmp = Vec.get h.data i in
  Vec.set h.data i (Vec.get h.data j);
  Vec.set h.data j tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp (Vec.get h.data i) (Vec.get h.data parent) < 0 then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let n = Vec.length h.data in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < n && h.cmp (Vec.get h.data l) (Vec.get h.data !smallest) < 0 then smallest := l;
  if r < n && h.cmp (Vec.get h.data r) (Vec.get h.data !smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let add h x =
  Vec.push h.data x;
  sift_up h (Vec.length h.data - 1)

let peek h = if is_empty h then None else Some (Vec.get h.data 0)

let pop h =
  match Vec.length h.data with
  | 0 -> None
  | 1 -> Vec.pop h.data
  | n ->
    let top = Vec.get h.data 0 in
    let tail =
      match Vec.pop h.data with
      | Some x -> x
      | None -> assert false
    in
    ignore n;
    Vec.set h.data 0 tail;
    sift_down h 0;
    Some top

let of_list ~cmp l =
  let h = create ~cmp in
  List.iter (add h) l;
  h

let to_sorted_list h =
  let copy = { cmp = h.cmp; data = Vec.of_list (Vec.to_list h.data) } in
  let rec drain acc =
    match pop copy with
    | None -> List.rev acc
    | Some x -> drain (x :: acc)
  in
  drain []

