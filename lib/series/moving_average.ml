module Dsp = Simq_dsp

(* Equivalent to a circular convolution with the padded kernel, but in
   O(n·width) instead of O(n²): only the window taps contribute. *)
let circular w s =
  let n = Array.length s in
  let kernel = Dsp.Window.kernel n w in
  let m = Dsp.Window.width w in
  Array.init n (fun i ->
      let acc = ref 0. in
      for j = 0 to m - 1 do
        let idx = if i >= j then i - j else i - j + n in
        acc := !acc +. (kernel.(j) *. s.(idx))
      done;
      !acc)

let sliding m s =
  let n = Array.length s in
  if m <= 0 then invalid_arg "Moving_average.sliding: window must be positive";
  if m > n then invalid_arg "Moving_average.sliding: window wider than series";
  let inv = 1. /. float_of_int m in
  (* Running sum over the window, updated incrementally. *)
  let out = Array.make (n - m + 1) 0. in
  let acc = ref 0. in
  for t = 0 to m - 1 do
    acc := !acc +. s.(t)
  done;
  out.(0) <- !acc *. inv;
  for t = 1 to n - m do
    acc := !acc +. s.(t + m - 1) -. s.(t - 1);
    out.(t) <- !acc *. inv
  done;
  out

let repeated k w s =
  if k < 0 then invalid_arg "Moving_average.repeated: negative count";
  let rec go k s = if k = 0 then s else go (k - 1) (circular w s) in
  go k s

let via_dft w s =
  let n = Array.length s in
  let transfer = Dsp.Window.transfer n w in
  let spectrum = Dsp.Fft.fft_real_flat s in
  let product = Dsp.Flat.create n in
  Dsp.Flat.stretch_into ~stretch:transfer spectrum product ~off:0;
  Series.idft_flat product
