let epoch = 1 lsl 32

let low_of seq = seq land (epoch - 1)

let high_of seq = seq lsr 32

let infer ~edge ~w ~seq_low =
  if w <= 0 then invalid_arg "Esn.infer: w must be positive";
  if seq_low < 0 || seq_low >= epoch then invalid_arg "Esn.infer: seq_low out of range";
  let tl = low_of edge and th = high_of edge in
  if tl >= w - 1 then
    (* Case A: the window lies within one epoch. *)
    if seq_low >= tl - (w - 1) then (th lsl 32) lor seq_low
    else ((th + 1) lsl 32) lor seq_low
  else if
    (* Case B: the window straddles the epoch boundary below tl. *)
    seq_low >= tl - (w - 1) + epoch
  then (((th - 1) lsl 32) lor seq_low)
  else (th lsl 32) lor seq_low
