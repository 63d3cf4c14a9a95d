module Series = Simq_series.Series

type regime = Bull | Bear | Flat

let drift = function
  | Bull -> 0.0012
  | Bear -> -0.0015
  | Flat -> 0.

let volatility = function
  | Bull -> 0.012
  | Bear -> 0.022
  | Flat -> 0.007

let switch_probability = 0.03

let next_regime state = function
  | current when Random.State.float state 1. > switch_probability -> current
  | _ -> (
    match Random.State.int state 3 with
    | 0 -> Bull
    | 1 -> Bear
    | _ -> Flat)

(* Box-Muller, one normal deviate. *)
let gaussian state =
  let u1 = Float.max epsilon_float (Random.State.float state 1.) in
  let u2 = Random.State.float state 1. in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let generate state ~n =
  if n <= 0 then invalid_arg "Stocklike.generate: n must be positive";
  let s = Array.make n 0. in
  s.(0) <- 5. +. Random.State.float state 95.;
  let regime = ref (next_regime state Flat) in
  for t = 1 to n - 1 do
    regime := next_regime state !regime;
    let shock = gaussian state in
    let r = drift !regime +. (volatility !regime *. shock) in
    s.(t) <- Float.max 0.01 (s.(t - 1) *. exp r)
  done;
  s

let batch ~seed ~count ~n =
  let state = Random.State.make [| seed |] in
  Array.init count (fun _ -> generate state ~n)

let correlated_pair state ~n ~rho =
  if rho < -1. || rho > 1. then
    invalid_arg "Stocklike.correlated_pair: rho must be in [-1, 1]";
  if n <= 0 then invalid_arg "Stocklike.correlated_pair: n must be positive";
  let a = Array.make n 0. and b = Array.make n 0. in
  a.(0) <- 5. +. Random.State.float state 95.;
  b.(0) <- 5. +. Random.State.float state 95.;
  let ortho = sqrt (1. -. (rho *. rho)) in
  for t = 1 to n - 1 do
    let shared = gaussian state and own = gaussian state in
    let shock_a = shared in
    let shock_b = (rho *. shared) +. (ortho *. own) in
    a.(t) <- Float.max 0.01 (a.(t - 1) *. exp (0.012 *. shock_a));
    b.(t) <- Float.max 0.01 (b.(t - 1) *. exp (0.012 *. shock_b))
  done;
  (a, b)
