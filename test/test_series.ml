open Simq_series
module Dsp = Simq_dsp

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

let series_testable =
  Alcotest.testable Series.pp (fun a b -> Series.equal ~eps:1e-9 a b)

(* --- Series ----------------------------------------------------------- *)

let test_series_basics () =
  let s = Series.of_list [ 1.; 2.; 3. ] in
  Alcotest.(check int) "length" 3 (Series.length s);
  Alcotest.check series_testable "add" [| 2.; 4.; 6. |] (Series.add s s);
  Alcotest.check series_testable "sub" [| 0.; 0.; 0. |] (Series.sub s s);
  Alcotest.check series_testable "scale" [| 2.; 4.; 6. |] (Series.scale 2. s);
  Alcotest.check series_testable "shift" [| 11.; 12.; 13. |] (Series.shift 10. s);
  Alcotest.check series_testable "reverse sign" [| -1.; -2.; -3. |]
    (Series.reverse_sign s)

let test_series_validate () =
  Alcotest.check_raises "empty" (Invalid_argument "Series.validate: empty series")
    (fun () -> ignore (Series.validate [||]));
  Alcotest.check_raises "nan" (Invalid_argument "Series.validate: non-finite value")
    (fun () -> ignore (Series.validate [| 1.; Float.nan |]))

let test_series_subsequence_and_sampling () =
  let s = [| 0.; 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.check series_testable "subsequence" [| 2.; 3.; 4. |]
    (Series.subsequence s ~pos:2 ~len:3);
  Alcotest.check series_testable "sample every 2" [| 0.; 2.; 4. |]
    (Series.sample_every 2 s);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Series.subsequence: out of bounds") (fun () ->
      ignore (Series.subsequence s ~pos:4 ~len:3))

let test_series_dft_roundtrip () =
  let s = [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. |] in
  Alcotest.check series_testable "idft . dft" s (Series.idft (Series.dft s))

(* --- Stats ------------------------------------------------------------ *)

let test_stats_basics () =
  let s = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Stats.mean s);
  check_float "variance" 4. (Stats.variance s);
  check_float "std" 2. (Stats.std s);
  check_float "min" 2. (Stats.minimum s);
  check_float "max" 9. (Stats.maximum s)

let test_stats_correlation () =
  let s = [| 1.; 2.; 3.; 4. |] in
  check_float "self correlation" 1. (Stats.correlation s s);
  check_float "anti correlation" (-1.)
    (Stats.correlation s (Series.reverse_sign s));
  check_float "constant series" 0. (Stats.correlation s (Array.make 4 7.))

let test_stats_returns () =
  let s = [| 100.; 110.; 99. |] in
  let r = Stats.returns s in
  check_close 1e-9 "up 10%" 0.1 r.(0);
  check_close 1e-9 "down 10%" (-0.1) r.(1);
  Alcotest.check_raises "too short"
    (Invalid_argument "Stats.returns: series too short") (fun () ->
      ignore (Stats.returns [| 1. |]));
  Alcotest.check_raises "zero value"
    (Invalid_argument "Stats.returns: zero value") (fun () ->
      ignore (Stats.returns [| 0.; 1. |]))

(* --- Distance --------------------------------------------------------- *)

let test_distance_paper_example_11 () =
  (* Example 1.1: D(s1, s2) = 11.92. *)
  let d = Distance.euclidean Fixtures.ex11_s1 Fixtures.ex11_s2 in
  check_close 0.01 "D(s1,s2)" 11.92 d

let test_distance_kinds () =
  let a = [| 0.; 0.; 0. |] and b = [| 3.; 4.; 0. |] in
  check_float "euclidean" 5. (Distance.euclidean a b)

let test_distance_early_abandon () =
  let a = [| 0.; 0.; 0.; 0. |] and b = [| 1.; 1.; 1.; 1. |] in
  (match Distance.euclidean_early_abandon ~threshold:3. a b with
  | Some d -> check_float "full distance" 2. d
  | None -> Alcotest.fail "should not abandon");
  (match Distance.euclidean_early_abandon ~threshold:1.5 a b with
  | None -> ()
  | Some _ -> Alcotest.fail "should abandon");
  Alcotest.(check bool) "within" true (Distance.within ~threshold:2. a b);
  Alcotest.(check bool) "not within" false (Distance.within ~threshold:1.9 a b)

(* --- Normal form ------------------------------------------------------ *)

let test_normal_form_properties () =
  let s = Fixtures.ex11_s2 in
  let d = Normal_form.decompose s in
  Alcotest.(check bool) "normalised" true (Normal_form.is_normal d.normalised)

let test_normal_form_constant_series () =
  let d = Normal_form.decompose (Array.make 5 3.) in
  check_float "std" 0. d.std;
  check_float "mean" 3. d.mean;
  Alcotest.check series_testable "zero series" (Array.make 5 0.) d.normalised;
  Alcotest.(check bool) "zero series is normal" true
    (Normal_form.is_normal d.normalised)

let test_normal_form_invariance () =
  (* Normal form is invariant under shift and positive scale. *)
  let s = Fixtures.ex11_s1 in
  let shifted_scaled = Series.shift 5. (Series.scale 3. s) in
  Alcotest.check series_testable "invariant"
    (Normal_form.normalise s)
    (Normal_form.normalise shifted_scaled)

(* The fold formulas the loops replaced, kept as the reference: mean,
   variance and normal form must repeat them bit for bit. *)
module Fold_ref = struct
  let mean s = Array.fold_left ( +. ) 0. s /. float_of_int (Array.length s)

  let variance s =
    let m = mean s in
    let acc = Array.fold_left (fun acc v -> acc +. ((v -. m) ** 2.)) 0. s in
    acc /. float_of_int (Array.length s)

  let decompose s =
    let mean = mean s and std = sqrt (variance s) in
    let normalised =
      if std = 0. then Array.map (fun _ -> 0.) s
      else Array.map (fun v -> (v -. mean) /. std) s
    in
    (normalised, mean, std)
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits msg expected actual =
  if not (same_bits expected actual) then
    Alcotest.failf "%s: %h, expected %h" msg actual expected

let check_decompose_matches_fold msg s =
  let normalised, mean, std = Fold_ref.decompose s in
  let d = Normal_form.decompose s in
  check_bits (msg ^ " mean") mean d.Normal_form.mean;
  check_bits (msg ^ " std") std d.Normal_form.std;
  check_bits (msg ^ " Stats.mean") (Fold_ref.mean s) (Stats.mean s);
  check_bits (msg ^ " Stats.variance") (Fold_ref.variance s) (Stats.variance s);
  Alcotest.(check int) (msg ^ " length") (Array.length normalised)
    (Array.length d.Normal_form.normalised);
  Array.iteri
    (fun t v -> check_bits (Printf.sprintf "%s point %d" msg t) v
        d.Normal_form.normalised.(t))
    normalised

let test_normal_form_matches_fold () =
  let state = Random.State.make [| 1013 |] in
  for i = 1 to 500 do
    let n = 1 + Random.State.int state 200 in
    check_decompose_matches_fold (Printf.sprintf "walk %d" i)
      (Generator.random_walk state n)
  done;
  check_decompose_matches_fold "length 1" [| 42.5 |];
  check_decompose_matches_fold "constant" (Array.make 17 (-3.25));
  check_decompose_matches_fold "zeros" (Array.make 4 0.)

let test_normal_form_empty () =
  Alcotest.check_raises "empty decompose"
    (Invalid_argument "Stats.mean: empty series") (fun () ->
      ignore (Normal_form.decompose [||]));
  Alcotest.check_raises "empty variance"
    (Invalid_argument "Stats.variance: empty series") (fun () ->
      ignore (Stats.variance [||]))

let test_normal_form_keeps_pow () =
  (* libm's [pow d 2.] and [d *. d] round this series' squared
     deviations differently, so replacing [** 2.] by a product moves its
     variance, std and normal form; every stored spectrum would move
     with them. *)
  let s = [| 14.45; 7.35; 5.88; 3.34 |] in
  check_bits "variance" 0x1.0ffac710cb295p+4 (Stats.variance s);
  let d = Normal_form.decompose s in
  check_bits "std" 0x1.07de6de5b8baap+2 d.Normal_form.std;
  check_decompose_matches_fold "pinned" s

let test_fft_callers_bit_identical () =
  (* The series-level FFT callers run on the flat kernel; they must give
     the bits of their boxed formulas over the boxed wrappers. *)
  let state = Random.State.make [| 4242 |] in
  List.iter
    (fun n ->
      let s = Generator.random_walk state n in
      let w = Dsp.Window.uniform (min n 4) in
      let boxed_idft z = Dsp.Cpx.re_array (Dsp.Fft.ifft z) in
      let check msg expected actual =
        Array.iteri
          (fun t v -> check_bits (Printf.sprintf "%s n=%d point %d" msg n t) v
              actual.(t))
          expected
      in
      check "via_dft"
        (boxed_idft
           (Dsp.Cpx.mul_arrays
              (Dsp.Flat.to_cpx (Dsp.Window.transfer n w))
              (Dsp.Fft.fft_real s)))
        (Moving_average.via_dft w s);
      let z = Dsp.Fft.fft_real s in
      check "idft" (boxed_idft z) (Series.idft z);
      let a = Warp.coefficients ~m:2 ~n ~k:n in
      let spectrum = Dsp.Fft.fft_real s in
      let expected =
        Array.init n (fun f ->
            Dsp.Cpx.scale (1. /. sqrt 2.) (Dsp.Cpx.mul a.(f) spectrum.(f)))
      in
      let actual = Warp.spectrum_of_expanded 2 s in
      check "warp re" (Dsp.Cpx.re_array expected) (Dsp.Cpx.re_array actual);
      check "warp im" (Dsp.Cpx.im_array expected) (Dsp.Cpx.im_array actual))
    [ 8; 13; 64; 128 ]

(* --- Moving average --------------------------------------------------- *)

let test_ma_paper_example_11 () =
  (* Example 1.1: the 3-day moving averages are 0.47 apart. *)
  let w = Dsp.Window.uniform 3 in
  let m1 = Moving_average.circular w Fixtures.ex11_s1 in
  let m2 = Moving_average.circular w Fixtures.ex11_s2 in
  check_close 0.01 "D(ma3 s1, ma3 s2)" 0.47 (Distance.euclidean m1 m2)

let test_ma_circular_matches_dft () =
  let s = Generator.random_walk (Random.State.make [| 5 |]) 32 in
  let w = Dsp.Window.uniform 5 in
  Alcotest.(check bool) "circular = via_dft" true
    (Series.equal ~eps:1e-6 (Moving_average.circular w s)
       (Moving_average.via_dft w s))

let test_ma_sliding () =
  let s = [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.check series_testable "sliding 3" [| 2.; 3.; 4. |]
    (Moving_average.sliding 3 s);
  Alcotest.check series_testable "sliding 1 is identity" s
    (Moving_average.sliding 1 s);
  Alcotest.check_raises "too wide"
    (Invalid_argument "Moving_average.sliding: window wider than series")
    (fun () -> ignore (Moving_average.sliding 6 s))

let test_ma_repeated () =
  let s = Fixtures.ex11_s1 in
  let w = Dsp.Window.uniform 3 in
  Alcotest.check series_testable "zero times is identity" s
    (Moving_average.repeated 0 w s);
  let twice = Moving_average.circular w (Moving_average.circular w s) in
  Alcotest.(check bool) "twice" true
    (Series.equal ~eps:1e-9 twice (Moving_average.repeated 2 w s))

let test_ma_smooths_towards_mean () =
  (* Example 2.3's observation: repeated averaging flattens a series. *)
  let s = Generator.random_walk (Random.State.make [| 17 |]) 64 in
  let w = Dsp.Window.uniform 8 in
  let variance_after k = Stats.variance (Moving_average.repeated k w s) in
  Alcotest.(check bool) "variance decreases" true
    (variance_after 1 < Stats.variance s && variance_after 4 < variance_after 1);
  check_close 1e-6 "mean preserved" (Stats.mean s)
    (Stats.mean (Moving_average.circular w s))

(* --- Warp ------------------------------------------------------------- *)

let test_warp_paper_example_12 () =
  (* Example 1.2: scaling the time dimension of p by 2 gives s. *)
  Alcotest.check series_testable "expand 2 p = s" Fixtures.ex12_s
    (Warp.expand 2 Fixtures.ex12_p)

let test_warp_expand_inverse_of_sampling () =
  let s = Generator.random_walk (Random.State.make [| 23 |]) 16 in
  Alcotest.check series_testable "sample . expand = id" s
    (Series.sample_every 3 (Warp.expand 3 s))

let test_warp_spectrum_prediction () =
  (* Appendix A: the predicted coefficients match the DFT of the
     expanded series. *)
  List.iter
    (fun (m, n) ->
      let s = Generator.random_walk (Random.State.make [| (m * 100) + n |]) n in
      let predicted = Warp.spectrum_of_expanded m s in
      let actual = Dsp.Fft.fft_real (Warp.expand m s) in
      let actual_prefix = Array.sub actual 0 n in
      Alcotest.(check bool)
        (Printf.sprintf "m=%d n=%d" m n)
        true
        (Dsp.Cpx.close_arrays ~eps:1e-6 predicted actual_prefix))
    [ (2, 8); (3, 8); (2, 15); (5, 6) ]

let test_warp_coefficients_f0 () =
  (* a_0 = m: the mean scales by the stretch factor (in unnormalised
     terms). *)
  let a = Warp.coefficients ~m:4 ~n:8 ~k:1 in
  check_float "a_0 = m" 4. (Dsp.Cpx.re a.(0));
  check_float "a_0 imaginary" 0. (Dsp.Cpx.im a.(0))

(* --- Generator -------------------------------------------------------- *)

let test_generator_random_walk_shape () =
  let s = Generator.random_walk (Random.State.make [| 1 |]) 128 in
  Alcotest.(check int) "length" 128 (Series.length s);
  Alcotest.(check bool) "start in [20,99]" true (s.(0) >= 20. && s.(0) <= 99.);
  for t = 1 to 127 do
    Alcotest.(check bool) "step within [-4,4]" true
      (Float.abs (s.(t) -. s.(t - 1)) <= 4.)
  done

let test_generator_reproducible () =
  let a = Generator.random_walks ~seed:7 ~count:3 ~n:32 in
  let b = Generator.random_walks ~seed:7 ~count:3 ~n:32 in
  Array.iteri
    (fun idx s -> Alcotest.check series_testable "same batch" s b.(idx))
    a

let test_generator_sine () =
  let state = Random.State.make [| 3 |] in
  let s = Generator.sine state ~n:64 ~period:16. ~amplitude:2. ~noise:0. in
  Alcotest.(check bool) "sine bounded" true
    (Stats.maximum s <= 2.0001 && Stats.minimum s >= -2.0001)

(* --- property-based --------------------------------------------------- *)

let series_gen =
  QCheck.Gen.(
    let* n = int_range 2 64 in
    array_size (return n) (float_range (-50.) 50.))

let arb_series = QCheck.make ~print:QCheck.Print.(array float) series_gen

let arb_series_pair =
  (* Two series of the same length. *)
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 48 in
      let* a = array_size (return n) (float_range (-50.) 50.) in
      let* b = array_size (return n) (float_range (-50.) 50.) in
      return (a, b))
  in
  QCheck.make ~print:QCheck.Print.(pair (array float) (array float)) gen

let prop_euclidean_metric =
  QCheck.Test.make ~name:"euclidean is symmetric and non-negative" ~count:100
    arb_series_pair (fun (a, b) ->
      let d = Distance.euclidean a b in
      d >= 0. && Float.abs (d -. Distance.euclidean b a) <= 1e-9)

let prop_euclidean_triangle =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 32 in
      let* a = array_size (return n) (float_range (-50.) 50.) in
      let* b = array_size (return n) (float_range (-50.) 50.) in
      let* c = array_size (return n) (float_range (-50.) 50.) in
      return (a, b, c))
  in
  QCheck.Test.make ~name:"euclidean triangle inequality" ~count:100
    (QCheck.make gen) (fun (a, b, c) ->
      Distance.euclidean a c
      <= Distance.euclidean a b +. Distance.euclidean b c +. 1e-6)

let prop_ma_equals_dft_route =
  QCheck.Test.make ~name:"circular MA = frequency-domain MA" ~count:60
    (QCheck.pair arb_series (QCheck.int_range 1 8)) (fun (s, m) ->
      QCheck.assume (m <= Array.length s);
      let w = Dsp.Window.uniform m in
      Series.equal ~eps:1e-5 (Moving_average.circular w s)
        (Moving_average.via_dft w s))

let prop_distance_time_freq =
  QCheck.Test.make ~name:"distance equal in time and frequency domain"
    ~count:60 arb_series_pair (fun (a, b) ->
      let time = Distance.euclidean a b in
      let freq = Dsp.Spectrum.distance (Series.dft a) (Series.dft b) in
      Float.abs (time -. freq) <= 1e-6 *. (1. +. time))

let prop_warp_expand_length =
  QCheck.Test.make ~name:"expand multiplies length and preserves energy ratio"
    ~count:60
    (QCheck.pair arb_series (QCheck.int_range 1 4))
    (fun (s, m) ->
      let e = Warp.expand m s in
      Array.length e = m * Array.length s
      && Float.abs
           (Dsp.Spectrum.energy_real e -. (float_of_int m *. Dsp.Spectrum.energy_real s))
         <= 1e-6 *. (1. +. Dsp.Spectrum.energy_real e))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_euclidean_metric;
      prop_euclidean_triangle;
      prop_ma_equals_dft_route;
      prop_distance_time_freq;
      prop_warp_expand_length;
    ]

let () =
  Alcotest.run "simq_series"
    [
      ( "series",
        [
          Alcotest.test_case "basics" `Quick test_series_basics;
          Alcotest.test_case "validate" `Quick test_series_validate;
          Alcotest.test_case "subsequence and sampling" `Quick
            test_series_subsequence_and_sampling;
          Alcotest.test_case "dft roundtrip" `Quick test_series_dft_roundtrip;
          Alcotest.test_case "FFT callers bit-identical" `Quick
            test_fft_callers_bit_identical;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "correlation" `Quick test_stats_correlation;
          Alcotest.test_case "returns" `Quick test_stats_returns;
        ] );
      ( "distance",
        [
          Alcotest.test_case "paper example 1.1" `Quick
            test_distance_paper_example_11;
          Alcotest.test_case "distance kinds" `Quick test_distance_kinds;
          Alcotest.test_case "early abandon" `Quick test_distance_early_abandon;
        ] );
      ( "normal form",
        [
          Alcotest.test_case "properties" `Quick test_normal_form_properties;
          Alcotest.test_case "constant series" `Quick
            test_normal_form_constant_series;
          Alcotest.test_case "shift/scale invariance" `Quick
            test_normal_form_invariance;
          Alcotest.test_case "bit-identical to the fold formulas" `Quick
            test_normal_form_matches_fold;
          Alcotest.test_case "empty series message" `Quick test_normal_form_empty;
          Alcotest.test_case "keeps pow for the squares" `Quick
            test_normal_form_keeps_pow;
        ] );
      ( "moving average",
        [
          Alcotest.test_case "paper example 1.1" `Quick test_ma_paper_example_11;
          Alcotest.test_case "circular matches dft route" `Quick
            test_ma_circular_matches_dft;
          Alcotest.test_case "sliding" `Quick test_ma_sliding;
          Alcotest.test_case "repeated" `Quick test_ma_repeated;
          Alcotest.test_case "smooths towards mean" `Quick
            test_ma_smooths_towards_mean;
        ] );
      ( "warp",
        [
          Alcotest.test_case "paper example 1.2" `Quick test_warp_paper_example_12;
          Alcotest.test_case "expand inverse of sampling" `Quick
            test_warp_expand_inverse_of_sampling;
          Alcotest.test_case "spectrum prediction (Appendix A)" `Quick
            test_warp_spectrum_prediction;
          Alcotest.test_case "warp coefficient at f=0" `Quick
            test_warp_coefficients_f0;
        ] );
      ( "generator",
        [
          Alcotest.test_case "random walk shape" `Quick
            test_generator_random_walk_shape;
          Alcotest.test_case "reproducible" `Quick test_generator_reproducible;
          Alcotest.test_case "sine" `Quick test_generator_sine;
        ] );
      ("properties", properties);
    ]
