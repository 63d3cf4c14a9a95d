module A = Bigarray.Array1

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let next_power_of_two n =
  if n <= 0 then invalid_arg "Fft.next_power_of_two";
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* In-place iterative radix-2 Cooley-Tukey over the [n] coefficients of
   the flat buffer [x] from float index [o], unnormalised:
   computes Σ_t x_t e^(sign·2π·t·f·j / n). Every complex operation is
   spelled out with [Complex.mul]/[add]/[sub]'s formulas on local
   floats, so nothing is boxed and the result is bit for bit the boxed
   transform's. *)
let pow2_inplace ~sign (x : Flat.t) ~o n =
  assert (is_power_of_two n && o >= 0 && o + (2 * n) <= A.dim x);
  (* Bit-reversal permutation. *)
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let a = o + (2 * i) and b = o + (2 * !j) in
      let re = x.{a} and im = x.{a + 1} in
      x.{a} <- x.{b};
      x.{a + 1} <- x.{b + 1};
      x.{b} <- re;
      x.{b + 1} <- im
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  (* Butterflies: v = x_q·w, then x_p, x_q = u + v, u - v. The twiddle
     of position k in a block is w_k, advanced by the recurrence
     w_(k+1) = w_k·wstep from w_0 = 1 in every block; since every block
     of a stage sees the same w_k, the loop runs over k outside and over
     the blocks inside, computing each w_k once per stage. *)
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let theta = sign *. 2. *. Float.pi /. float_of_int !len in
    let sr = cos theta and si = sin theta in
    let wr = ref 1. and wi = ref 0. in
    for k = 0 to half - 1 do
      let p = ref (o + (2 * k)) in
      while !p < o + (2 * n) do
        let p' = !p and q = !p + !len in
        let ur = A.unsafe_get x p' and ui = A.unsafe_get x (p' + 1) in
        let xr = A.unsafe_get x q and xi = A.unsafe_get x (q + 1) in
        let vr = (xr *. !wr) -. (xi *. !wi)
        and vi = (xr *. !wi) +. (xi *. !wr) in
        A.unsafe_set x p' (ur +. vr);
        A.unsafe_set x (p' + 1) (ui +. vi);
        A.unsafe_set x q (ur -. vr);
        A.unsafe_set x (q + 1) (ui -. vi);
        p := !p + (2 * !len)
      done;
      let r = (!wr *. sr) -. (!wi *. si) in
      wi := (!wr *. si) +. (!wi *. sr);
      wr := r
    done;
    len := !len * 2
  done

(* Bluestein's chirp-z algorithm for the [n] coefficients of [x], in
   place and unnormalised. Uses m² mod 2n when forming chirp angles to
   keep the argument small: e^(sign·π·m²·j / n) has period 2n in m².
   The coefficients sit in [x] from float index [o]. *)
let bluestein ~sign (x : Flat.t) ~o n =
  let chirp = Flat.create n in
  for t = 0 to n - 1 do
    let m2 = t * t mod (2 * n) in
    let theta = sign *. Float.pi *. float_of_int m2 /. float_of_int n in
    chirp.{2 * t} <- cos theta;
    chirp.{(2 * t) + 1} <- sin theta
  done;
  let m = next_power_of_two ((2 * n) - 1) in
  (* a_t = x_t · chirp_t, zero-padded to m. *)
  let a = Flat.zeros m in
  for t = 0 to n - 1 do
    let xr = x.{o + (2 * t)} and xi = x.{o + (2 * t) + 1} in
    let cr = chirp.{2 * t} and ci = chirp.{(2 * t) + 1} in
    a.{2 * t} <- (xr *. cr) -. (xi *. ci);
    a.{(2 * t) + 1} <- (xr *. ci) +. (xi *. cr)
  done;
  (* b = conj chirp, wrapped around so the convolution is circular. *)
  let b = Flat.zeros m in
  b.{0} <- 1.;
  for t = 1 to n - 1 do
    let vr = chirp.{2 * t} and vi = -.chirp.{(2 * t) + 1} in
    b.{2 * t} <- vr;
    b.{(2 * t) + 1} <- vi;
    b.{2 * (m - t)} <- vr;
    b.{(2 * (m - t)) + 1} <- vi
  done;
  pow2_inplace ~sign:(-1.) a ~o:0 m;
  pow2_inplace ~sign:(-1.) b ~o:0 m;
  (* Unnormalised inverse of the pow2 transform of a·b: conjugate,
     transform, conjugate (folded into the read-out below). *)
  for i = 0 to m - 1 do
    let ar = a.{2 * i} and ai = a.{(2 * i) + 1} in
    let br = b.{2 * i} and bi = b.{(2 * i) + 1} in
    a.{2 * i} <- (ar *. br) -. (ai *. bi);
    a.{(2 * i) + 1} <- -.((ar *. bi) +. (ai *. br))
  done;
  pow2_inplace ~sign:(-1.) a ~o:0 m;
  let inv_m = 1. /. float_of_int m in
  for f = 0 to n - 1 do
    let cr = inv_m *. a.{2 * f} and ci = inv_m *. -.a.{(2 * f) + 1} in
    let wr = chirp.{2 * f} and wi = chirp.{(2 * f) + 1} in
    x.{o + (2 * f)} <- (wr *. cr) -. (wi *. ci);
    x.{o + (2 * f) + 1} <- (wr *. ci) +. (wi *. cr)
  done

(* The normalised transform of the [n] coefficients of [x] from float
   index [o]. *)
let transform ~sign (x : Flat.t) ~o n =
  if n > 0 then begin
    if is_power_of_two n then pow2_inplace ~sign x ~o n
    else bluestein ~sign x ~o n;
    let scale = 1. /. sqrt (float_of_int n) in
    for i = o to o + (2 * n) - 1 do
      A.unsafe_set x i (scale *. A.unsafe_get x i)
    done
  end

let transform_inplace ~name ~sign (x : Flat.t) =
  if A.dim x land 1 <> 0 then
    invalid_arg (name ^ ": odd buffer length");
  transform ~sign x ~o:0 (Flat.length x)

let fft_inplace x = transform_inplace ~name:"Fft.fft_inplace" ~sign:(-1.) x
let ifft_inplace x = transform_inplace ~name:"Fft.ifft_inplace" ~sign:1. x

let fft_real_into (x : float array) (dst : Flat.t) ~off =
  let n = Array.length x in
  if off < 0 || 2 * (off + n) > A.dim dst then
    invalid_arg "Fft.fft_real_into: destination out of bounds";
  let o = 2 * off in
  for t = 0 to n - 1 do
    dst.{o + (2 * t)} <- x.(t);
    dst.{o + (2 * t) + 1} <- 0.
  done;
  transform ~sign:(-1.) dst ~o n

let fft_real_flat (x : float array) =
  let y = Flat.create (Array.length x) in
  fft_real_into x y ~off:0;
  y

let fft x =
  let y = Flat.of_cpx x in
  fft_inplace y;
  Flat.to_cpx y

let ifft x =
  let y = Flat.of_cpx x in
  ifft_inplace y;
  Flat.to_cpx y

let fft_real x = Flat.to_cpx (fft_real_flat x)
