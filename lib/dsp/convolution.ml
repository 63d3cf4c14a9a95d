let circular x y =
  let n = Array.length x in
  if Array.length y <> n then
    invalid_arg "Convolution.circular: length mismatch";
  Array.init n (fun idx ->
      let acc = ref Cpx.zero in
      for k = 0 to n - 1 do
        let j = ((idx - k) mod n + n) mod n in
        acc := Cpx.add !acc (Cpx.mul x.(k) y.(j))
      done;
      !acc)

let circular_fft x y =
  let n = Array.length x in
  if Array.length y <> n then
    invalid_arg "Convolution.circular_fft: length mismatch";
  if n = 0 then [||]
  else begin
    let fx = Flat.of_cpx x and fy = Flat.of_cpx y in
    Fft.fft_inplace fx;
    Fft.fft_inplace fy;
    (* fx := sqrt n · fx·fy, by [Complex.mul]'s formula, then back. *)
    let gain = sqrt (float_of_int n) in
    for f = 0 to n - 1 do
      let xr = fx.(2 * f) and xi = fx.((2 * f) + 1) in
      let yr = fy.(2 * f) and yi = fy.((2 * f) + 1) in
      fx.(2 * f) <- gain *. ((xr *. yr) -. (xi *. yi));
      fx.((2 * f) + 1) <- gain *. ((xr *. yi) +. (xi *. yr))
    done;
    Fft.ifft_inplace fx;
    Flat.to_cpx fx
  end

let circular_real x y =
  Cpx.re_array (circular (Cpx.of_real_array x) (Cpx.of_real_array y))
