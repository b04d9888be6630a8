type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable mn : float;
  mutable mx : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; mn = infinity; mx = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x

let count t = t.n

let mean t = if t.n = 0 then 0. else t.mean

let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let min t =
  if t.n = 0 then invalid_arg "Stats.min: empty";
  t.mn

let max t =
  if t.n = 0 then invalid_arg "Stats.max: empty";
  t.mx

let total t = t.mean *. float_of_int t.n

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
    in
    { n; mean; m2; mn = Float.min a.mn b.mn; mx = Float.max a.mx b.mx }
  end

module Sample = struct
  type s = {
    values : float Vec.t;
    mutable sorted : bool;
  }

  let create () = { values = Vec.create (); sorted = true }

  let add s x =
    Vec.push s.values x;
    s.sorted <- false

  let count s = Vec.length s.values

  let mean s =
    let n = Vec.length s.values in
    if n = 0 then 0. else Vec.fold_left ( +. ) 0. s.values /. float_of_int n

  let ensure_sorted s =
    if not s.sorted then begin
      Vec.sort Float.compare s.values;
      s.sorted <- true
    end

  let percentile s p =
    let n = Vec.length s.values in
    if n = 0 then invalid_arg "Stats.Sample.percentile: empty";
    if p < 0. || p > 100. then invalid_arg "Stats.Sample.percentile: p out of range";
    ensure_sorted s;
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    let vlo = Vec.get s.values lo and vhi = Vec.get s.values hi in
    vlo +. (frac *. (vhi -. vlo))

  let median s = percentile s 50.
end

module Histogram = struct
  type h = {
    lo : float;
    hi : float;
    counts : int array;
  }

  let create ~lo ~hi ~buckets =
    if buckets <= 0 then invalid_arg "Histogram.create: buckets must be positive";
    if hi <= lo then invalid_arg "Histogram.create: empty range";
    { lo; hi; counts = Array.make buckets 0 }

  let bucket_index h x =
    let buckets = Array.length h.counts in
    if x < h.lo then 0
    else if x >= h.hi then buckets - 1
    else
      let width = (h.hi -. h.lo) /. float_of_int buckets in
      Stdlib.min (buckets - 1) (int_of_float ((x -. h.lo) /. width))

  let add h x =
    let i = bucket_index h x in
    h.counts.(i) <- h.counts.(i) + 1

  let counts h = Array.copy h.counts

  let total h = Array.fold_left ( + ) 0 h.counts

  let percentile h p =
    let n = total h in
    if n = 0 then invalid_arg "Stats.Histogram.percentile: empty";
    if p < 0. || p > 100. then invalid_arg "Stats.Histogram.percentile: p out of range";
    let buckets = Array.length h.counts in
    let width = (h.hi -. h.lo) /. float_of_int buckets in
    let target = p /. 100. *. float_of_int n in
    if target <= 0. then begin
      (* p = 0: the lower edge of the first populated bucket *)
      let i = ref 0 in
      while h.counts.(!i) = 0 do
        incr i
      done;
      h.lo +. (float_of_int !i *. width)
    end
    else begin
      let result = ref h.hi in
      let cum = ref 0 in
      (try
         for i = 0 to buckets - 1 do
           let c = h.counts.(i) in
           if c > 0 && float_of_int (!cum + c) >= target then begin
             (* the target rank falls inside bucket i: interpolate *)
             let frac = (target -. float_of_int !cum) /. float_of_int c in
             result := h.lo +. ((float_of_int i +. frac) *. width);
             raise Exit
           end;
           cum := !cum + c
         done
       with Exit -> ());
      Float.min !result h.hi
    end

  let bucket_bounds h =
    let buckets = Array.length h.counts in
    let width = (h.hi -. h.lo) /. float_of_int buckets in
    Array.init buckets (fun i ->
        (h.lo +. (float_of_int i *. width), h.lo +. (float_of_int (i + 1) *. width)))
end
