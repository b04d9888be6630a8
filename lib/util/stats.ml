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
end
