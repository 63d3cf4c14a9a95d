let uniform state lo hi = lo +. Random.State.float state (hi -. lo)

let random_walk state n =
  if n <= 0 then invalid_arg "Generator.random_walk: n must be positive";
  let s = Array.make n 0. in
  s.(0) <- uniform state 20. 99.;
  for t = 1 to n - 1 do
    s.(t) <- s.(t - 1) +. uniform state (-4.) 4.
  done;
  s

let random_walks ~seed ~count ~n =
  let state = Random.State.make [| seed |] in
  Array.init count (fun _ -> random_walk state n)

let sine state ~n ~period ~amplitude ~noise =
  if n <= 0 then invalid_arg "Generator.sine: n must be positive";
  if period <= 0. then invalid_arg "Generator.sine: period must be positive";
  let phase = Random.State.float state (2. *. Float.pi) in
  Array.init n (fun t ->
      let base =
        amplitude *. sin ((2. *. Float.pi *. float_of_int t /. period) +. phase)
      in
      base +. if noise > 0. then uniform state (-.noise) noise else 0.)

