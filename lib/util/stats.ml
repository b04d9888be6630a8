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
