type t = { weights : float array }

let normalise name weights =
  if Array.length weights = 0 then invalid_arg (name ^ ": empty window");
  Array.iter
    (fun w ->
      if not (Float.is_finite w) then invalid_arg (name ^ ": non-finite weight"))
    weights;
  let total = Array.fold_left ( +. ) 0. weights in
  if Float.abs total < 1e-12 then invalid_arg (name ^ ": weights sum to zero");
  { weights = Array.map (fun w -> w /. total) weights }

let uniform m =
  if m <= 0 then invalid_arg "Window.uniform";
  { weights = Array.make m (1. /. float_of_int m) }

let triangular m =
  if m <= 0 then invalid_arg "Window.triangular";
  let centre = float_of_int (m - 1) /. 2. in
  let raw =
    Array.init m (fun idx -> centre +. 1. -. Float.abs (float_of_int idx -. centre))
  in
  normalise "Window.triangular" raw

let ascending m =
  if m <= 0 then invalid_arg "Window.ascending";
  (* weights.(0) multiplies the current day in a trailing window, so the
     largest weight sits at index 0. *)
  let raw = Array.init m (fun idx -> float_of_int (m - idx)) in
  normalise "Window.ascending" raw

let exponential ~alpha m =
  if m <= 0 then invalid_arg "Window.exponential";
  if not (alpha > 0. && alpha <= 1.) then
    invalid_arg "Window.exponential: alpha must be in (0, 1]";
  let raw = Array.init m (fun idx -> alpha *. ((1. -. alpha) ** float_of_int idx)) in
  normalise "Window.exponential" raw

let custom weights = normalise "Window.custom" (Array.copy weights)
let width w = Array.length w.weights

let kernel n w =
  let m = width w in
  if m > n then invalid_arg "Window.kernel: window wider than signal";
  Array.init n (fun idx -> if idx < m then w.weights.(idx) else 0.)

let transfer n w =
  let h = Fft.fft_real_flat (kernel n w) in
  let gain = sqrt (float_of_int n) in
  for i = 0 to Bigarray.Array1.dim h - 1 do
    h.{i} <- gain *. h.{i}
  done;
  h

let pp ppf w =
  Format.fprintf ppf "window[%a]"
    (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Format.pp_print_float)
    (Array.to_seq w.weights)
