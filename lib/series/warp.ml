module Dsp = Simq_dsp

let expand m s =
  if m < 1 then invalid_arg "Warp.expand: factor must be >= 1";
  let n = Array.length s in
  Array.init (m * n) (fun idx -> s.(idx / m))

let coefficients ~m ~n ~k =
  if m < 1 || n < 1 then invalid_arg "Warp.coefficients: m and n must be >= 1";
  if k < 0 || k > m * n then invalid_arg "Warp.coefficients: bad k";
  Array.init k (fun f ->
      let acc = ref Dsp.Cpx.zero in
      for t = 0 to m - 1 do
        let theta =
          -2. *. Float.pi *. float_of_int (t * f) /. float_of_int (m * n)
        in
        acc := Dsp.Cpx.add !acc (Dsp.Cpx.exp_i theta)
      done;
      !acc)

let spectrum_of_expanded m s =
  let n = Array.length s in
  let a = coefficients ~m ~n ~k:n in
  let spectrum = Dsp.Fft.fft_real_flat s in
  let inv_sqrt_m = 1. /. sqrt (float_of_int m) in
  Array.init n (fun f ->
      Dsp.Cpx.scale inv_sqrt_m (Dsp.Cpx.mul a.(f) (Dsp.Flat.coeff spectrum f)))
