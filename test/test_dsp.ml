open Simq_dsp

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))

let complex_array_testable eps =
  Alcotest.testable Cpx.pp_array (fun a b -> Cpx.close_arrays ~eps a b)

let check_cpx_arrays ?(eps = 1e-9) msg expected actual =
  Alcotest.check (complex_array_testable eps) msg expected actual

(* Deterministic pseudo-random signal helper for unit tests. *)
let random_signal seed n =
  let state = Random.State.make [| seed |] in
  Array.init n (fun _ -> Random.State.float state 100. -. 50.)

(* --- Cpx ------------------------------------------------------------- *)

let test_cpx_polar_roundtrip () =
  let z = Cpx.make 3. (-4.) in
  let z' = Cpx.polar (Cpx.abs z) (Cpx.angle z) in
  Alcotest.(check bool) "roundtrip" true (Cpx.close ~eps:1e-12 z z')

let test_cpx_arithmetic () =
  let a = Cpx.make 1. 2. and b = Cpx.make 3. (-1.) in
  check_float "re of product" 5. (Cpx.re (Cpx.mul a b));
  check_float "im of product" 5. (Cpx.im (Cpx.mul a b));
  check_float "re of sum" 4. (Cpx.re (Cpx.add a b));
  check_float "scale" 2.5 (Cpx.re (Cpx.scale 2.5 Cpx.one))

let test_cpx_root_of_unity () =
  let w = Cpx.root_of_unity 4 1 in
  Alcotest.(check bool) "e^(-i pi/2) = -i" true
    (Cpx.close ~eps:1e-12 w (Cpx.make 0. (-1.)))

let test_cpx_array_ops_mismatch () =
  Alcotest.check_raises "mul_arrays mismatch"
    (Invalid_argument "Cpx.mul_arrays: length mismatch (2 vs 3)") (fun () ->
      ignore (Cpx.mul_arrays [| Cpx.one; Cpx.one |] [| Cpx.one; Cpx.one; Cpx.one |]))

(* --- Dft -------------------------------------------------------------- *)

let test_dft_constant_signal () =
  (* DFT of a constant c over n points: X_0 = c·sqrt n, rest 0. *)
  let n = 8 in
  let x = Array.make n 5. in
  let coeffs = Dft.dft_real x in
  check_float "X_0" (5. *. sqrt (float_of_int n)) (Cpx.re coeffs.(0));
  for f = 1 to n - 1 do
    check_float "X_f re" 0. (Cpx.re coeffs.(f));
    check_float "X_f im" 0. (Cpx.im coeffs.(f))
  done

let test_dft_inverse_roundtrip () =
  let x = Cpx.of_real_array (random_signal 42 17) in
  check_cpx_arrays ~eps:1e-9 "idft (dft x) = x" x (Dft.idft (Dft.dft x))

let test_dft_linearity () =
  let x = Cpx.of_real_array (random_signal 1 12)
  and y = Cpx.of_real_array (random_signal 2 12) in
  let lhs =
    Dft.dft (Cpx.add_arrays (Cpx.scale_array 2. x) (Cpx.scale_array (-3.) y))
  in
  let rhs =
    Cpx.add_arrays
      (Cpx.scale_array 2. (Dft.dft x))
      (Cpx.scale_array (-3.) (Dft.dft y))
  in
  check_cpx_arrays ~eps:1e-9 "linearity" rhs lhs

let test_dft_coefficients_prefix () =
  let x = random_signal 3 16 in
  let full = Dft.dft_real x in
  let prefix = Dft.coefficients 4 x in
  check_cpx_arrays "prefix agrees" (Array.sub full 0 4) prefix;
  Alcotest.check_raises "k too large"
    (Invalid_argument "Dft.coefficients: k exceeds signal length") (fun () ->
      ignore (Dft.coefficients 17 x))

let test_dft_empty () =
  Alcotest.(check int) "empty" 0 (Array.length (Dft.dft [||]))

(* --- Fft -------------------------------------------------------------- *)

let test_fft_matches_dft_pow2 () =
  let x = Cpx.of_real_array (random_signal 7 64) in
  check_cpx_arrays ~eps:1e-8 "fft = dft (n=64)" (Dft.dft x) (Fft.fft x)

let test_fft_matches_dft_arbitrary () =
  List.iter
    (fun n ->
      let x = Cpx.of_real_array (random_signal (100 + n) n) in
      check_cpx_arrays ~eps:1e-7
        (Printf.sprintf "fft = dft (n=%d)" n)
        (Dft.dft x) (Fft.fft x))
    [ 1; 2; 3; 5; 12; 15; 31; 100; 127 ]

let test_fft_inverse_roundtrip () =
  List.iter
    (fun n ->
      let x = Cpx.of_real_array (random_signal n n) in
      check_cpx_arrays ~eps:1e-8
        (Printf.sprintf "ifft (fft x) = x (n=%d)" n)
        x
        (Fft.ifft (Fft.fft x)))
    [ 4; 9; 16; 33; 128 ]

let test_fft_prime_sizes () =
  (* Bluestein must handle awkward primes. *)
  List.iter
    (fun n ->
      let x = Cpx.of_real_array (random_signal (n * 3) n) in
      check_cpx_arrays ~eps:1e-6
        (Printf.sprintf "prime n=%d" n)
        (Dft.dft x) (Fft.fft x))
    [ 7; 97; 251 ]

let test_fft_impulse () =
  (* The DFT of a unit impulse is flat: every coefficient 1/sqrt n. *)
  let n = 16 in
  let x = Array.init n (fun idx -> if idx = 0 then 1. else 0.) in
  let coeffs = Fft.fft_real x in
  let expected = 1. /. sqrt (float_of_int n) in
  Array.iter
    (fun c ->
      check_float "flat magnitude" expected (Cpx.re c);
      check_float "no phase" 0. (Cpx.im c))
    coeffs

let test_power_of_two_helpers () =
  Alcotest.(check bool) "1 is pow2" true (Fft.is_power_of_two 1);
  Alcotest.(check bool) "64 is pow2" true (Fft.is_power_of_two 64);
  Alcotest.(check bool) "12 is not" false (Fft.is_power_of_two 12);
  Alcotest.(check bool) "0 is not" false (Fft.is_power_of_two 0);
  Alcotest.(check int) "next of 1" 1 (Fft.next_power_of_two 1);
  Alcotest.(check int) "next of 65" 128 (Fft.next_power_of_two 65)

(* --- Flat FFT: bit for bit the boxed transform ------------------------ *)

(* The boxed radix-2 and Bluestein transforms the flat kernel replaced,
   kept verbatim as the reference: the flat kernel must repeat them
   operation for operation. *)
module Boxed_ref = struct
  let fft_pow2_inplace ~sign (x : Cpx.t array) =
    let n = Array.length x in
    let j = ref 0 in
    for i = 0 to n - 2 do
      if i < !j then begin
        let tmp = x.(i) in
        x.(i) <- x.(!j);
        x.(!j) <- tmp
      end;
      let m = ref (n lsr 1) in
      while !m >= 1 && !j land !m <> 0 do
        j := !j lxor !m;
        m := !m lsr 1
      done;
      j := !j lor !m
    done;
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      let theta = sign *. 2. *. Float.pi /. float_of_int !len in
      let wstep = Cpx.exp_i theta in
      let base = ref 0 in
      while !base < n do
        let w = ref Cpx.one in
        for k = 0 to half - 1 do
          let u = x.(!base + k) in
          let v = Cpx.mul x.(!base + k + half) !w in
          x.(!base + k) <- Cpx.add u v;
          x.(!base + k + half) <- Cpx.sub u v;
          w := Cpx.mul !w wstep
        done;
        base := !base + !len
      done;
      len := !len * 2
    done

  let bluestein ~sign x =
    let n = Array.length x in
    let chirp m =
      let m2 = m * m mod (2 * n) in
      Cpx.exp_i (sign *. Float.pi *. float_of_int m2 /. float_of_int n)
    in
    let m = Fft.next_power_of_two ((2 * n) - 1) in
    let a = Array.make m Cpx.zero in
    for t = 0 to n - 1 do
      a.(t) <- Cpx.mul x.(t) (chirp t)
    done;
    let b = Array.make m Cpx.zero in
    b.(0) <- Cpx.one;
    for t = 1 to n - 1 do
      let v = Cpx.conj (chirp t) in
      b.(t) <- v;
      b.(m - t) <- v
    done;
    fft_pow2_inplace ~sign:(-1.) a;
    fft_pow2_inplace ~sign:(-1.) b;
    let c = Array.map2 Cpx.mul a b in
    Array.iteri (fun idx v -> c.(idx) <- Cpx.conj v) c;
    fft_pow2_inplace ~sign:(-1.) c;
    let inv_m = 1. /. float_of_int m in
    Array.init n (fun f -> Cpx.mul (chirp f) (Cpx.scale inv_m (Cpx.conj c.(f))))

  let transform ~sign x =
    let n = Array.length x in
    if n = 0 then [||]
    else begin
      let y =
        if Fft.is_power_of_two n then begin
          let y = Array.copy x in
          fft_pow2_inplace ~sign y;
          y
        end
        else bluestein ~sign x
      in
      let scale = 1. /. sqrt (float_of_int n) in
      Array.map (Cpx.scale scale) y
    end

  let fft x = transform ~sign:(-1.) x
  let ifft x = transform ~sign:1. x
  let fft_real x = fft (Cpx.of_real_array x)
end

let fft_flat_lengths =
  List.init 11 (fun p -> 1 lsl p) @ [ 3; 5; 7; 12; 100; 127; 129 ]

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_same_spectrum msg (expected : Cpx.t array) (actual : Cpx.t array) =
  Alcotest.(check int) (msg ^ ": length") (Array.length expected)
    (Array.length actual);
  Array.iteri
    (fun f (z : Cpx.t) ->
      let w = actual.(f) in
      if not (same_bits (Cpx.re z) (Cpx.re w) && same_bits (Cpx.im z) (Cpx.im w))
      then
        Alcotest.failf "%s: coefficient %d is %h%+hj, expected %h%+hj" msg f
          (Cpx.re w) (Cpx.im w) (Cpx.re z) (Cpx.im z))
    expected

let random_complex seed n =
  let re = random_signal seed n and im = random_signal (seed + 7919) n in
  Array.init n (fun t -> Cpx.make re.(t) im.(t))

let test_fft_flat_bit_identical () =
  List.iter
    (fun n ->
      let x = random_complex (300 + n) n in
      let name dir = Printf.sprintf "%s n=%d" dir n in
      let forward = Boxed_ref.fft x and inverse = Boxed_ref.ifft x in
      check_same_spectrum (name "fft") forward (Fft.fft x);
      check_same_spectrum (name "ifft") inverse (Fft.ifft x);
      let flat = Flat.of_cpx x in
      Fft.fft_inplace flat;
      check_same_spectrum (name "fft_inplace") forward (Flat.to_cpx flat);
      let flat = Flat.of_cpx x in
      Fft.ifft_inplace flat;
      check_same_spectrum (name "ifft_inplace") inverse (Flat.to_cpx flat))
    fft_flat_lengths

let test_fft_real_flat_bit_identical () =
  List.iter
    (fun n ->
      let x = random_signal (500 + n) n in
      let expected = Boxed_ref.fft_real x in
      let msg = Printf.sprintf "n=%d" n in
      check_same_spectrum ("fft_real_flat " ^ msg) expected
        (Flat.to_cpx (Fft.fft_real_flat x));
      check_same_spectrum ("fft_real " ^ msg) expected (Fft.fft_real x))
    (0 :: fft_flat_lengths)

let test_fft_real_flat_random_walks () =
  (* The series the data sets store: 128-point random walks. *)
  let state = Random.State.make [| 2026 |] in
  for i = 1 to 200 do
    let x = Array.make 128 0. in
    for t = 1 to 127 do
      x.(t) <- x.(t - 1) +. Random.State.float state 2. -. 1.
    done;
    check_same_spectrum
      (Printf.sprintf "walk %d" i)
      (Boxed_ref.fft_real x)
      (Flat.to_cpx (Fft.fft_real_flat x))
  done

let test_fft_real_flat_allocation () =
  let n = 128 and calls = 1000 in
  let x = random_signal 77 n in
  ignore (Sys.opaque_identity (Fft.fft_real_flat x));
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Fft.fft_real_flat x))
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  (* The output buffer is 2n floats plus a header word. *)
  let output = float_of_int ((2 * n) + 1) in
  if per_call > output +. 8. then
    Alcotest.failf "fft_real_flat allocates %.1f words per call (output %.0f)"
      per_call output

let test_fft_callers_bit_identical () =
  (* Window transfer functions and FFT convolution, against the boxed
     formulas they used before the flat kernel. *)
  List.iter
    (fun n ->
      let w = Window.triangular (min n 5) in
      let expected =
        Cpx.scale_array (sqrt (float_of_int n))
          (Boxed_ref.fft_real (Window.kernel n w))
      in
      check_same_spectrum (Printf.sprintf "transfer n=%d" n) expected
        (Flat.to_cpx (Window.transfer n w));
      let x = random_complex (700 + n) n and y = random_complex (900 + n) n in
      let expected =
        Boxed_ref.ifft
          (Cpx.scale_array (sqrt (float_of_int n))
             (Cpx.mul_arrays (Boxed_ref.fft x) (Boxed_ref.fft y)))
      in
      check_same_spectrum (Printf.sprintf "circular_fft n=%d" n) expected
        (Convolution.circular_fft x y))
    [ 8; 12; 32; 100; 128 ]

(* [Flat.blit] is one memmove: rows copy double for double, an
   overlapping range moves as a whole, and every range is checked
   before the copy. *)
let test_flat_blit () =
  let x = Flat.of_cpx (Array.init 6 (fun f -> Cpx.make (float_of_int f) (-1.))) in
  let y = Flat.zeros 4 in
  Flat.blit x ~pos:2 y ~off:1 ~len:3;
  check_cpx_arrays "copied"
    [| Cpx.zero; Cpx.make 2. (-1.); Cpx.make 3. (-1.); Cpx.make 4. (-1.) |]
    (Flat.to_cpx y);
  Flat.blit x ~pos:0 x ~off:1 ~len:5;
  check_cpx_arrays "overlapping"
    (Array.init 6 (fun f -> Cpx.make (float_of_int (Int.max 0 (f - 1))) (-1.)))
    (Flat.to_cpx x);
  List.iter
    (fun (pos, off, len) ->
      Alcotest.check_raises "out of bounds"
        (Invalid_argument "Flat.blit: out of bounds") (fun () ->
          Flat.blit x ~pos y ~off ~len))
    [ (4, 0, 3); (0, 2, 3); (-1, 0, 1); (0, -1, 1); (0, 0, -1) ]

let test_fft_flat_odd_buffer () =
  Alcotest.check_raises "odd buffer"
    (Invalid_argument "Fft.fft_inplace: odd buffer length") (fun () ->
      Fft.fft_inplace
        (Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout
           [| 1.; 2.; 3. |]))

(* --- Convolution ------------------------------------------------------ *)

let test_convolution_identity_kernel () =
  (* Convolving with the delta kernel returns the signal unchanged. *)
  let x = random_signal 11 10 in
  let delta = Array.init 10 (fun idx -> if idx = 0 then 1. else 0.) in
  let y = Convolution.circular_real x delta in
  Array.iteri (fun idx v -> check_float "delta conv" x.(idx) v) y

let test_convolution_commutative () =
  let x = Cpx.of_real_array (random_signal 5 13)
  and y = Cpx.of_real_array (random_signal 6 13) in
  check_cpx_arrays ~eps:1e-7 "commutative" (Convolution.circular x y)
    (Convolution.circular y x)

let test_convolution_fft_agrees () =
  List.iter
    (fun n ->
      let x = Cpx.of_real_array (random_signal (n + 1) n)
      and y = Cpx.of_real_array (random_signal (n + 2) n) in
      check_cpx_arrays ~eps:1e-6
        (Printf.sprintf "fft conv (n=%d)" n)
        (Convolution.circular x y)
        (Convolution.circular_fft x y))
    [ 8; 15; 32 ]

let test_convolution_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Convolution.circular: length mismatch") (fun () ->
      ignore (Convolution.circular [| Cpx.one |] [| Cpx.one; Cpx.one |]))

(* --- Window ----------------------------------------------------------- *)

let test_window_uniform () =
  let w = Window.uniform 4 in
  Alcotest.(check int) "width" 4 (Window.width w);
  let k = Window.kernel 8 w in
  check_float "weight" 0.25 k.(0);
  check_float "padding" 0. k.(5)

let test_window_weights_sum_to_one () =
  let sum w =
    Array.fold_left ( +. ) 0. (Window.kernel 16 w)
  in
  check_float_loose "uniform" 1. (sum (Window.uniform 5));
  check_float_loose "triangular" 1. (sum (Window.triangular 5));
  check_float_loose "ascending" 1. (sum (Window.ascending 5));
  check_float_loose "exponential" 1. (sum (Window.exponential ~alpha:0.3 5));
  check_float_loose "custom" 1. (sum (Window.custom [| 3.; 1.; 1. |]))

let test_window_ascending_orders_weights () =
  let w = Window.ascending 3 in
  let k = Window.kernel 4 w in
  Alcotest.(check bool) "recent day heaviest" true (k.(0) > k.(1) && k.(1) > k.(2))

let test_window_invalid () =
  Alcotest.check_raises "zero width" (Invalid_argument "Window.uniform")
    (fun () -> ignore (Window.uniform 0));
  Alcotest.check_raises "bad alpha"
    (Invalid_argument "Window.exponential: alpha must be in (0, 1]") (fun () ->
      ignore (Window.exponential ~alpha:1.5 3));
  Alcotest.check_raises "zero-sum weights"
    (Invalid_argument "Window.custom: weights sum to zero") (fun () ->
      ignore (Window.custom [| 1.; -1. |]));
  Alcotest.check_raises "window wider than signal"
    (Invalid_argument "Window.kernel: window wider than signal") (fun () ->
      ignore (Window.kernel 2 (Window.uniform 3)))

let test_window_transfer_dc_gain () =
  (* Weights sum to 1, so the DC gain H_0 is 1 for every window. *)
  List.iter
    (fun w ->
      let h = Flat.to_cpx (Window.transfer 32 w) in
      check_float_loose "H_0 real" 1. (Cpx.re h.(0));
      check_float_loose "H_0 imaginary" 0. (Cpx.im h.(0)))
    [
      Window.uniform 5; Window.triangular 7; Window.ascending 4;
      Window.exponential ~alpha:0.4 6; Window.custom [| 2.; 1. |];
    ]

let test_window_transfer_is_moving_average () =
  (* Multiplying the spectrum by the transfer function must equal the
     time-domain circular convolution with the kernel. *)
  let x = random_signal 21 16 in
  let w = Window.uniform 3 in
  let time_domain = Convolution.circular_real x (Window.kernel 16 w) in
  let freq =
    Fft.ifft
      (Cpx.mul_arrays (Flat.to_cpx (Window.transfer 16 w)) (Fft.fft_real x))
  in
  Array.iteri
    (fun idx v -> check_float_loose "transfer = conv" time_domain.(idx) v)
    (Cpx.re_array freq)

(* --- Spectrum --------------------------------------------------------- *)

let test_parseval () =
  let x = random_signal 31 20 in
  check_float_loose "Parseval" (Spectrum.energy_real x)
    (Spectrum.energy (Fft.fft_real x))

let test_distance_preserved_by_dft () =
  let x = random_signal 41 32 and y = random_signal 42 32 in
  let time =
    Spectrum.distance (Cpx.of_real_array x) (Cpx.of_real_array y)
  in
  let freq = Spectrum.distance (Fft.fft_real x) (Fft.fft_real y) in
  check_float_loose "Eq. 8" time freq

let test_prefix_distance_lower_bound () =
  let x = Fft.fft_real (random_signal 51 64)
  and y = Fft.fft_real (random_signal 52 64) in
  let full = Spectrum.distance x y in
  for k = 0 to 64 do
    Alcotest.(check bool)
      (Printf.sprintf "prefix %d <= full" k)
      true
      (Spectrum.prefix_distance k x y <= full +. 1e-9)
  done

let test_early_abandon () =
  let x = Fft.fft_real (random_signal 61 32)
  and y = Fft.fft_real (random_signal 62 32) in
  let full = Spectrum.distance x y in
  (match Spectrum.distance_early_abandon ~threshold:(full +. 1.) x y with
  | Some d -> check_float_loose "within threshold returns distance" full d
  | None -> Alcotest.fail "should not abandon");
  (match Spectrum.distance_early_abandon ~threshold:(full /. 2.) x y with
  | None -> ()
  | Some _ -> Alcotest.fail "should abandon")

let test_concentration_random_walk () =
  (* Brown-noise-like signals concentrate energy in low frequencies. *)
  let state = Random.State.make [| 9 |] in
  let n = 128 in
  let x = Array.make n 0. in
  x.(0) <- 50.;
  for t = 1 to n - 1 do
    x.(t) <- x.(t - 1) +. Random.State.float state 8. -. 4.
  done;
  let c = Spectrum.concentration 4 x in
  Alcotest.(check bool) "first 4 coeffs carry most energy" true (c > 0.9)

let test_concentration_zero_signal () =
  check_float "zero signal" 1. (Spectrum.concentration 3 (Array.make 8 0.))

(* --- property-based tests -------------------------------------------- *)

let signal_gen =
  QCheck.Gen.(
    let* n = int_range 1 64 in
    array_size (return n) (float_range (-100.) 100.))

let arb_signal = QCheck.make ~print:QCheck.Print.(array float) signal_gen

let prop_fft_roundtrip =
  QCheck.Test.make ~name:"ifft . fft = id" ~count:100 arb_signal (fun x ->
      let back = Fft.ifft (Fft.fft_real x) in
      Cpx.close_arrays ~eps:1e-6 (Cpx.of_real_array x) back)

let prop_fft_equals_dft =
  QCheck.Test.make ~name:"fft = dft" ~count:50 arb_signal (fun x ->
      Cpx.close_arrays ~eps:1e-6 (Dft.dft_real x) (Fft.fft_real x))

let prop_parseval =
  QCheck.Test.make ~name:"Parseval holds" ~count:100 arb_signal (fun x ->
      let te = Spectrum.energy_real x in
      let fe = Spectrum.energy (Fft.fft_real x) in
      Float.abs (te -. fe) <= 1e-6 *. (1. +. te))

let prop_convolution_theorem =
  QCheck.Test.make ~name:"DFT(conv x y) = sqrt n * X * Y" ~count:50
    (QCheck.pair arb_signal arb_signal) (fun (x, y) ->
      let n = min (Array.length x) (Array.length y) in
      QCheck.assume (n >= 1);
      let x = Array.sub x 0 n and y = Array.sub y 0 n in
      let conv = Convolution.circular_real x y in
      let lhs = Fft.fft_real conv in
      let rhs =
        Cpx.scale_array
          (sqrt (float_of_int n))
          (Cpx.mul_arrays (Fft.fft_real x) (Fft.fft_real y))
      in
      Cpx.close_arrays ~eps:1e-4 lhs rhs)

let prop_early_abandon_agrees =
  QCheck.Test.make ~name:"early abandon agrees with distance" ~count:100
    (QCheck.triple arb_signal arb_signal QCheck.pos_float)
    (fun (x, y, threshold) ->
      let n = min (Array.length x) (Array.length y) in
      QCheck.assume (n >= 1);
      let x = Cpx.of_real_array (Array.sub x 0 n)
      and y = Cpx.of_real_array (Array.sub y 0 n) in
      let d = Spectrum.distance x y in
      match Spectrum.distance_early_abandon ~threshold x y with
      | Some d' -> Float.abs (d -. d') <= 1e-9
      | None -> d > threshold -. 1e-9)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fft_roundtrip;
      prop_fft_equals_dft;
      prop_parseval;
      prop_convolution_theorem;
      prop_early_abandon_agrees;
    ]

let () =
  Alcotest.run "simq_dsp"
    [
      ( "cpx",
        [
          Alcotest.test_case "polar roundtrip" `Quick test_cpx_polar_roundtrip;
          Alcotest.test_case "arithmetic" `Quick test_cpx_arithmetic;
          Alcotest.test_case "root of unity" `Quick test_cpx_root_of_unity;
          Alcotest.test_case "array mismatch" `Quick test_cpx_array_ops_mismatch;
        ] );
      ( "dft",
        [
          Alcotest.test_case "constant signal" `Quick test_dft_constant_signal;
          Alcotest.test_case "inverse roundtrip" `Quick test_dft_inverse_roundtrip;
          Alcotest.test_case "linearity" `Quick test_dft_linearity;
          Alcotest.test_case "coefficient prefix" `Quick test_dft_coefficients_prefix;
          Alcotest.test_case "empty signal" `Quick test_dft_empty;
        ] );
      ( "fft",
        [
          Alcotest.test_case "matches dft, power of two" `Quick
            test_fft_matches_dft_pow2;
          Alcotest.test_case "matches dft, arbitrary n" `Quick
            test_fft_matches_dft_arbitrary;
          Alcotest.test_case "inverse roundtrip" `Quick test_fft_inverse_roundtrip;
          Alcotest.test_case "prime sizes (Bluestein)" `Quick test_fft_prime_sizes;
          Alcotest.test_case "impulse" `Quick test_fft_impulse;
          Alcotest.test_case "power-of-two helpers" `Quick test_power_of_two_helpers;
        ] );
      ( "fft-flat",
        [
          Alcotest.test_case "bit-identical to boxed, both directions" `Quick
            test_fft_flat_bit_identical;
          Alcotest.test_case "real input bit-identical to boxed" `Quick
            test_fft_real_flat_bit_identical;
          Alcotest.test_case "random walks bit-identical" `Quick
            test_fft_real_flat_random_walks;
          Alcotest.test_case "allocates only its output (n=128)" `Quick
            test_fft_real_flat_allocation;
          Alcotest.test_case "transfer and convolution bit-identical" `Quick
            test_fft_callers_bit_identical;
          Alcotest.test_case "odd buffer rejected" `Quick test_fft_flat_odd_buffer;
          Alcotest.test_case "blit copies and checks its ranges" `Quick
            test_flat_blit;
        ] );
      ( "convolution",
        [
          Alcotest.test_case "identity kernel" `Quick test_convolution_identity_kernel;
          Alcotest.test_case "commutative" `Quick test_convolution_commutative;
          Alcotest.test_case "fft agrees with direct" `Quick test_convolution_fft_agrees;
          Alcotest.test_case "length mismatch" `Quick test_convolution_mismatch;
        ] );
      ( "window",
        [
          Alcotest.test_case "uniform" `Quick test_window_uniform;
          Alcotest.test_case "weights sum to one" `Quick test_window_weights_sum_to_one;
          Alcotest.test_case "ascending order" `Quick test_window_ascending_orders_weights;
          Alcotest.test_case "invalid windows" `Quick test_window_invalid;
          Alcotest.test_case "transfer DC gain" `Quick test_window_transfer_dc_gain;
          Alcotest.test_case "transfer = moving average" `Quick
            test_window_transfer_is_moving_average;
        ] );
      ( "spectrum",
        [
          Alcotest.test_case "Parseval" `Quick test_parseval;
          Alcotest.test_case "distance preserved (Eq. 8)" `Quick
            test_distance_preserved_by_dft;
          Alcotest.test_case "prefix distance lower bound" `Quick
            test_prefix_distance_lower_bound;
          Alcotest.test_case "early abandon" `Quick test_early_abandon;
          Alcotest.test_case "random-walk concentration" `Quick
            test_concentration_random_walk;
          Alcotest.test_case "zero-signal concentration" `Quick
            test_concentration_zero_signal;
        ] );
      ("properties", properties);
    ]
