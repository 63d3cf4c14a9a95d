let energy x =
  Array.fold_left (fun acc z -> acc +. (Cpx.abs z ** 2.)) 0. x

let energy_real x = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. x

let sq_norm z =
  let re = Cpx.re z and im = Cpx.im z in
  (re *. re) +. (im *. im)

let distance x y =
  if Array.length x <> Array.length y then
    invalid_arg "Spectrum.distance: length mismatch";
  let acc = ref 0. in
  for f = 0 to Array.length x - 1 do
    acc := !acc +. sq_norm (Cpx.sub x.(f) y.(f))
  done;
  sqrt !acc

let prefix_distance k x y =
  if k > Array.length x || k > Array.length y then
    invalid_arg "Spectrum.prefix_distance: k exceeds vector length";
  let acc = ref 0. in
  for f = 0 to k - 1 do
    acc := !acc +. sq_norm (Cpx.sub x.(f) y.(f))
  done;
  sqrt !acc

let distance_early_abandon ~threshold x y =
  if Array.length x <> Array.length y then
    invalid_arg "Spectrum.distance_early_abandon: length mismatch";
  let limit = threshold *. threshold in
  let n = Array.length x in
  let rec go f acc =
    if acc > limit then None
    else if f >= n then Some (sqrt acc)
    else go (f + 1) (acc +. sq_norm (Cpx.sub x.(f) y.(f)))
  in
  go 0 0.

let concentration k x =
  let total = energy_real x in
  if total = 0. then 1.
  else begin
    let coeffs = Fft.fft_real_flat x in
    let k = min k (Flat.length coeffs) in
    let kept = energy (Flat.sub coeffs ~pos:0 ~len:k) in
    kept /. total
  end

let magnitudes = Cpx.abs_array
let phases x = Array.map Cpx.angle x
