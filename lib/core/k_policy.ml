open Resets_sim

type adaptive_config = {
  initial_k : int;
  floor : int;
  ceiling : int;
  alpha : float;
  deviation_gain : float;
  headroom : float;
  hysteresis : float;
}

type mode =
  | Static of { k : int; leap : int }
  | Adaptive of adaptive_config

let static ?leap k =
  if k <= 0 then invalid_arg "K_policy.static: k must be positive";
  Static { k; leap = (match leap with Some l -> l | None -> 2 * k) }

let adaptive ?(floor = 1) ?(ceiling = 4096) ?(alpha = 0.2)
    ?(deviation_gain = 2.0) ?(headroom = 1.2) ?(hysteresis = 0.25) ~initial_k
    () =
  if initial_k <= 0 then
    invalid_arg "K_policy.adaptive: initial_k must be positive";
  if floor <= 0 || ceiling < floor then
    invalid_arg "K_policy.adaptive: need 0 < floor <= ceiling";
  if not (alpha > 0. && alpha <= 1.) then
    invalid_arg "K_policy.adaptive: alpha must be in (0, 1]";
  if deviation_gain < 0. || headroom < 1. || hysteresis < 0. then
    invalid_arg "K_policy.adaptive: bad gain/headroom/hysteresis";
  Adaptive
    { initial_k; floor; ceiling; alpha; deviation_gain; headroom; hysteresis }

let bound_of_mode = function
  | Static { k; _ } -> k
  | Adaptive cfg -> cfg.ceiling

let describe = function
  | Static { k; _ } -> string_of_int k
  | Adaptive cfg -> Printf.sprintf "auto:%d" cfg.initial_k

(* Live adaptive state. All floats are nanoseconds. The controller is
   pure arithmetic over its observations: no PRNG, no engine events —
   a seeded run stays deterministic whatever the policy. *)
type adaptive_state = {
  cfg : adaptive_config;
  mutable k : int;
  mutable high_water : int; (* max k since the last completed SAVE *)
  mutable lat_ewma : float;
  mutable lat_dev : float;
  mutable lat_obs : int;
  mutable gap_ewma : float;
  mutable gap_obs : int;
  mutable adjustments : int;
}

type t =
  | S of { k : int; leap : int }
  | A of adaptive_state

let make = function
  | Static { k; leap } -> S { k; leap }
  | Adaptive cfg ->
    let k0 = min (max cfg.initial_k cfg.floor) cfg.ceiling in
    A
      {
        cfg;
        k = k0;
        high_water = k0;
        lat_ewma = 0.;
        lat_dev = 0.;
        lat_obs = 0;
        gap_ewma = 0.;
        gap_obs = 0;
        adjustments = 0;
      }

let mode = function
  | S { k; leap } -> Static { k; leap }
  | A s -> Adaptive s.cfg

let is_adaptive = function S _ -> false | A _ -> true

let current = function S { k; _ } -> k | A s -> s.k

let leap = function S { leap; _ } -> leap | A s -> 2 * s.high_water

let max_leap = function S { leap; _ } -> leap | A s -> 2 * s.cfg.ceiling

let latency_estimate_ns s =
  s.lat_ewma +. (s.cfg.deviation_gain *. s.lat_dev)

let derived_floor_of s =
  if s.lat_obs = 0 || s.gap_obs = 0 || s.gap_ewma <= 0. then None
  else
    Some
      (int_of_float
         (Float.ceil (s.cfg.headroom *. latency_estimate_ns s /. s.gap_ewma)))

(* Re-derive K after an observation. The derived value is clamped to
   [floor, ceiling]; the hysteresis dead-band keeps K put while the
   derivation wobbles around it, so a step change in disk latency moves
   K once (monotonically, as the EWMA converges) instead of oscillating. *)
let recompute s =
  match derived_floor_of s with
  | None -> ()
  | Some derived ->
    let target = min (max derived s.cfg.floor) s.cfg.ceiling in
    if
      float_of_int (abs (target - s.k))
      > s.cfg.hysteresis *. float_of_int s.k
    then begin
      s.k <- target;
      if target > s.high_water then s.high_water <- target;
      s.adjustments <- s.adjustments + 1
    end

let ewma_update ~alpha ~ewma ~dev ~obs x =
  if obs = 0 then (x, 0.)
  else
    (* RFC 6298 order: deviation against the old mean, then the mean. *)
    let dev' = ((1. -. alpha) *. dev) +. (alpha *. Float.abs (x -. ewma)) in
    let ewma' = ((1. -. alpha) *. ewma) +. (alpha *. x) in
    (ewma', dev')

let observe_save_latency t dt =
  match t with
  | S _ -> ()
  | A s ->
    let x = Int64.to_float (Time.to_ns dt) in
    let ewma, dev =
      ewma_update ~alpha:s.cfg.alpha ~ewma:s.lat_ewma ~dev:s.lat_dev
        ~obs:s.lat_obs x
    in
    s.lat_ewma <- ewma;
    s.lat_dev <- dev;
    s.lat_obs <- s.lat_obs + 1;
    recompute s

let observe_send_gap t dt =
  match t with
  | S _ -> ()
  | A s ->
    let x = Int64.to_float (Time.to_ns dt) in
    (* Gaps use a plain EWMA: the rule divides by the typical gap, and
       inflating the divisor by its own noise would shrink K — the
       unsafe direction. *)
    let ewma =
      if s.gap_obs = 0 then x
      else ((1. -. s.cfg.alpha) *. s.gap_ewma) +. (s.cfg.alpha *. x)
    in
    s.gap_ewma <- ewma;
    s.gap_obs <- s.gap_obs + 1;
    recompute s

let note_durable = function S _ -> () | A s -> s.high_water <- s.k

let derived_floor = function S _ -> None | A s -> derived_floor_of s

let adjustments = function S _ -> 0 | A s -> s.adjustments

let observations = function S _ -> 0 | A s -> s.lat_obs + s.gap_obs
