type t = float array

let of_list = Array.of_list
let length = Array.length

let validate s =
  if Array.length s = 0 then invalid_arg "Series.validate: empty series";
  for t = 0 to Array.length s - 1 do
    if not (Float.is_finite s.(t)) then
      invalid_arg "Series.validate: non-finite value"
  done;
  s

let equal ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a b

let map2 f a b =
  if Array.length a <> Array.length b then
    invalid_arg "Series.map2: length mismatch";
  Array.map2 f a b

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b
let scale c s = Array.map (fun v -> c *. v) s
let shift c s = Array.map (fun v -> c +. v) s
let reverse_sign s = scale (-1.) s

let subsequence s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length s then
    invalid_arg "Series.subsequence: out of bounds";
  Array.sub s pos len

let sample_every k s =
  if k <= 0 then invalid_arg "Series.sample_every: k must be positive";
  let n = (Array.length s + k - 1) / k in
  Array.init n (fun idx -> s.(idx * k))

let dft s = Simq_dsp.Fft.fft_real s

let idft_flat (x : Simq_dsp.Flat.t) =
  Simq_dsp.Fft.ifft_inplace x;
  let out = Array.create_float (Simq_dsp.Flat.length x) in
  for t = 0 to Array.length out - 1 do
    out.(t) <- x.(2 * t)
  done;
  out

let idft coeffs = idft_flat (Simq_dsp.Flat.of_cpx coeffs)

let pp ppf s =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf v -> Format.fprintf ppf "%g" v))
    (Array.to_seq s)
