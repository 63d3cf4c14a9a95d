open Simq_geometry
module Cpx = Simq_dsp.Cpx

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

let rect_testable = Alcotest.testable Rect.pp (fun a b -> Rect.equal a b)
let point_testable = Alcotest.testable Point.pp (fun a b -> Point.equal a b)

let rect lo hi = Rect.create ~lo ~hi

(* --- Point ------------------------------------------------------------ *)

let test_point_distance () =
  check_float "3-4-5" 5. (Point.distance [| 0.; 0. |] [| 3.; 4. |]);
  check_float "squared" 25. (Point.squared_distance [| 0.; 0. |] [| 3.; 4. |]);
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Point.squared_distance: dimension mismatch") (fun () ->
      ignore (Point.distance [| 0. |] [| 1.; 2. |]))

let test_point_create_rejects_nan () =
  Alcotest.check_raises "nan"
    (Invalid_argument "Point.create: non-finite coordinate") (fun () ->
      ignore (Point.create [| Float.nan |]))

(* --- Rect ------------------------------------------------------------- *)

let test_rect_create_normalises () =
  let r = rect [| 5.; 1. |] [| 1.; 5. |] in
  Alcotest.check rect_testable "swapped bounds" (rect [| 1.; 1. |] [| 5.; 5. |]) r

let test_rect_contains () =
  let r = rect [| 0.; 0. |] [| 10.; 10. |] in
  Alcotest.(check bool) "inside" true (Rect.contains_point r [| 5.; 5. |]);
  Alcotest.(check bool) "boundary" true (Rect.contains_point r [| 0.; 10. |]);
  Alcotest.(check bool) "outside" false (Rect.contains_point r [| 11.; 5. |]);
  Alcotest.(check bool) "contains rect" true
    (Rect.contains_rect r (rect [| 1.; 1. |] [| 2.; 2. |]));
  Alcotest.(check bool) "not contains rect" false
    (Rect.contains_rect r (rect [| 1.; 1. |] [| 11.; 2. |]))

let test_rect_set_ops () =
  let a = rect [| 0.; 0. |] [| 4.; 4. |] in
  let b = rect [| 2.; 2. |] [| 6.; 6. |] in
  Alcotest.(check bool) "intersects" true (Rect.intersects a b);
  Alcotest.check rect_testable "union" (rect [| 0.; 0. |] [| 6.; 6. |])
    (Rect.union a b);
  check_float "overlap area" 4. (Rect.overlap_area a b);
  let far = rect [| 10.; 10. |] [| 11.; 11. |] in
  Alcotest.(check bool) "disjoint" false (Rect.intersects a far);
  check_float "overlap disjoint" 0. (Rect.overlap_area a far)

let test_rect_measures () =
  let r = rect [| 0.; 0.; 0. |] [| 2.; 3.; 4. |] in
  check_float "area" 24. (Rect.area r);
  check_float "margin" 9. (Rect.margin r);
  check_float "enlargement none" 0.
    (Rect.enlargement r ~extra:(rect [| 1.; 1.; 1. |] [| 2.; 2.; 2. |]));
  Alcotest.check point_testable "center" [| 1.; 1.5; 2. |] (Rect.center r)

let test_rect_of_points () =
  let r = Rect.of_points [ [| 1.; 5. |]; [| 3.; 2. |]; [| 2.; 7. |] ] in
  Alcotest.check rect_testable "mbr" (rect [| 1.; 2. |] [| 3.; 7. |]) r

let test_mindist () =
  let r = rect [| 0.; 0. |] [| 2.; 2. |] in
  check_float "inside" 0. (Rect.mindist [| 1.; 1. |] r);
  check_float "left" 1. (Rect.mindist [| -1.; 1. |] r);
  check_float "corner" (sqrt 2.) (Rect.mindist [| 3.; 3. |] r)

let test_mindist_inside_is_zero () =
  let r = rect [| 0.; 0. |] [| 4.; 4. |] in
  check_float "centre" 0. (Rect.mindist [| 2.; 2. |] r);
  check_float "face" 0. (Rect.mindist [| 0.; 2. |] r)

let test_coords_decode_odd_dims () =
  Alcotest.check_raises "odd dims"
    (Invalid_argument "Coords.decode: odd dimension count") (fun () ->
      ignore (Coords.decode Coords.Rectangular [| 1.; 2.; 3. |]))

let test_region_full_circle_meets_everything () =
  Alcotest.(check bool) "full circle" true
    (Region.meets_interval Region.full_circle ~lo:123. ~hi:124.);
  Alcotest.(check bool) "contains any angle" true
    (Region.contains_value Region.full_circle 55.)

(* --- Linear transform ------------------------------------------------- *)

let test_lt_apply () =
  let t = Linear_transform.create ~a:[| 2.; -1. |] ~b:[| 1.; 0. |] in
  Alcotest.check point_testable "apply" [| 7.; -4. |]
    (Linear_transform.apply t [| 3.; 4. |])

let test_lt_identity () =
  let id = Linear_transform.identity 3 in
  Alcotest.(check bool) "is identity" true (Linear_transform.is_identity id);
  Alcotest.check point_testable "apply id" [| 1.; 2.; 3. |]
    (Linear_transform.apply id [| 1.; 2.; 3. |])

let test_lt_negative_stretch_safe () =
  (* Theorem 1 with negative stretch: rectangle maps to rectangle with
     bounds renormalised. *)
  let t = Linear_transform.create ~a:[| -1.; 2. |] ~b:[| 0.; 1. |] in
  let r = rect [| 1.; 1. |] [| 2.; 3. |] in
  let r' = Linear_transform.apply_rect t r in
  Alcotest.check rect_testable "image" (rect [| -2.; 3. |] [| -1.; 7. |]) r'

let test_lt_compose_inverse () =
  let f = Linear_transform.create ~a:[| 2.; 3. |] ~b:[| 1.; -1. |] in
  let g = Linear_transform.create ~a:[| -1.; 0.5 |] ~b:[| 0.; 2. |] in
  let p = [| 5.; 7. |] in
  Alcotest.check point_testable "compose"
    (Linear_transform.apply f (Linear_transform.apply g p))
    (Linear_transform.apply (Linear_transform.compose f g) p);
  (match Linear_transform.inverse f with
  | Some f_inv ->
    Alcotest.check point_testable "inverse" p
      (Linear_transform.apply f_inv (Linear_transform.apply f p))
  | None -> Alcotest.fail "invertible");
  let singular = Linear_transform.create ~a:[| 0.; 1. |] ~b:[| 0.; 0. |] in
  Alcotest.(check bool) "singular has no inverse" true
    (Option.is_none (Linear_transform.inverse singular))

(* --- Complex transform & safety theory -------------------------------- *)

let test_ct_apply () =
  let t =
    Complex_transform.create
      ~a:[| Cpx.make 0. 1. |]
      ~b:[| Cpx.make 1. 1. |]
  in
  let y = Complex_transform.apply t [| Cpx.make 2. 0. |] in
  Alcotest.(check bool) "j*2 + (1+j) = 1+3j" true
    (Cpx.close y.(0) (Cpx.make 1. 3.))

let test_ct_reverse () =
  let t = Complex_transform.reverse 2 in
  let y = Complex_transform.apply t [| Cpx.make 1. 2.; Cpx.make (-3.) 4. |] in
  Alcotest.(check bool) "negated" true
    (Cpx.close y.(0) (Cpx.make (-1.) (-2.)) && Cpx.close y.(1) (Cpx.make 3. (-4.)))

let test_theorem2_lowering () =
  (* Real stretch, complex translation: lowering to S_rect commutes with
     encoding. *)
  let t =
    Complex_transform.create
      ~a:[| Cpx.of_float 2.; Cpx.of_float (-0.5) |]
      ~b:[| Cpx.make 1. (-1.); Cpx.make 0. 3. |]
  in
  let lowered = Complex_transform.to_rectangular t in
  let x = [| Cpx.make 3. 4.; Cpx.make (-1.) 2. |] in
  let via_complex =
    Coords.encode Coords.Rectangular (Complex_transform.apply t x)
  in
  let via_lowered =
    Linear_transform.apply lowered (Coords.encode Coords.Rectangular x)
  in
  Alcotest.check point_testable "commutes" via_complex via_lowered

let test_theorem3_lowering () =
  (* Complex stretch, zero translation: lowering to S_pol commutes with
     encoding, up to angle normalisation. *)
  let t =
    Complex_transform.stretch [| Cpx.polar 2. 0.7; Cpx.polar 0.5 (-1.2) |]
  in
  let lowered = Complex_transform.to_polar t in
  let x = [| Cpx.polar 3. 0.3; Cpx.polar 1. 2.9 |] in
  let via_complex = Complex_transform.apply t x in
  let encoded = Coords.encode Coords.Polar x in
  let moved = Linear_transform.apply lowered encoded in
  (* Compare as complex numbers so that angle wrap-around is ignored. *)
  let decoded = Coords.decode Coords.Polar moved in
  Alcotest.(check bool) "commutes" true
    (Cpx.close_arrays ~eps:1e-9 via_complex decoded)

let test_unsafe_lowerings_rejected () =
  let complex_stretch = Complex_transform.stretch [| Cpx.make 2. (-3.) |] in
  (try
     ignore (Complex_transform.to_rectangular complex_stretch);
     Alcotest.fail "expected Unsafe"
   with Complex_transform.Unsafe _ -> ());
  let with_translation =
    Complex_transform.create ~a:[| Cpx.make 2. (-3.) |] ~b:[| Cpx.one |]
  in
  try
    ignore (Complex_transform.to_polar with_translation);
    Alcotest.fail "expected Unsafe"
  with Complex_transform.Unsafe _ -> ()

let test_paper_counterexample_srect () =
  (* Section 3.1: multiplying by s = 2-3j maps the rectangle
     [-5-5j, 5+5j] to one that no longer contains the image of the
     interior point r = -2+2j: complex stretches are unsafe in S_rect. *)
  let s = Cpx.make 2. (-3.) in
  let p = Cpx.make (-5.) (-5.)
  and q = Cpx.make 5. 5.
  and r = Cpx.make (-2.) 2. in
  let encode z = Coords.encode Coords.Rectangular [| z |] in
  let original =
    Rect.union (Rect.of_point (encode p)) (Rect.of_point (encode q))
  in
  Alcotest.(check bool) "r inside original" true
    (Rect.contains_point original (encode r));
  let image =
    Rect.union
      (Rect.of_point (encode (Cpx.mul p s)))
      (Rect.of_point (encode (Cpx.mul q s)))
  in
  Alcotest.(check bool) "image of r escapes the image rectangle" false
    (Rect.contains_point image (encode (Cpx.mul r s)))

(* --- Coords ----------------------------------------------------------- *)

let test_coords_roundtrip () =
  let x = [| Cpx.make 1. 2.; Cpx.make (-3.) 0.5 |] in
  List.iter
    (fun rep ->
      let back = Coords.decode rep (Coords.encode rep x) in
      Alcotest.(check bool) "roundtrip" true (Cpx.close_arrays ~eps:1e-9 x back))
    [ Coords.Rectangular; Coords.Polar ]

let test_coords_rect_distance_preserved () =
  let x = [| Cpx.make 1. 2.; Cpx.make (-3.) 0.5 |] in
  let y = [| Cpx.make 0. 1.; Cpx.make 2. 2. |] in
  let complex_d = Simq_dsp.Spectrum.distance x y in
  let rect_d =
    Point.distance
      (Coords.encode Coords.Rectangular x)
      (Coords.encode Coords.Rectangular y)
  in
  check_close 1e-9 "S_rect preserves distance" complex_d rect_d

let test_search_region_rectangular () =
  let q = [| Cpx.make 1. 2. |] in
  let region = Coords.search_region Coords.Rectangular ~query:q ~epsilon:0.5 in
  Alcotest.(check bool) "query inside" true
    (Region.contains region (Coords.encode Coords.Rectangular q));
  Alcotest.(check bool) "nearby inside" true
    (Region.contains region [| 1.4; 1.6 |]);
  Alcotest.(check bool) "far outside" false
    (Region.contains region [| 2.; 2. |])

let test_search_region_polar_figure7 () =
  (* Figure 7: magnitude in [m-eps, m+eps], angle within asin(eps/m). *)
  let m = 2. and alpha = 0.3 and epsilon = 0.5 in
  let q = [| Cpx.polar m alpha |] in
  let region = Coords.search_region Coords.Polar ~query:q ~epsilon in
  let delta = asin (epsilon /. m) in
  Alcotest.(check bool) "boundary angle inside" true
    (Region.contains region [| m; alpha +. (delta *. 0.999) |]);
  Alcotest.(check bool) "beyond angle outside" false
    (Region.contains region [| m; alpha +. (delta *. 1.5) |]);
  Alcotest.(check bool) "magnitude band" true
    (Region.contains region [| m +. (epsilon *. 0.999); alpha |]);
  Alcotest.(check bool) "outside magnitude band" false
    (Region.contains region [| m +. (epsilon *. 1.5); alpha |])

let test_search_region_polar_wraps () =
  (* A query near the -pi/pi seam keeps nearby points on the other side
     of the seam inside the region. *)
  let q = [| Cpx.polar 5. (Float.pi -. 0.01) |] in
  let region = Coords.search_region Coords.Polar ~query:q ~epsilon:0.5 in
  let other_side = [| 5.; -.Float.pi +. 0.02 |] in
  Alcotest.(check bool) "wraps across the seam" true
    (Region.contains region other_side)

let test_search_region_small_magnitude () =
  (* eps >= magnitude: the angle is unconstrained. *)
  let q = [| Cpx.polar 0.3 1. |] in
  let region = Coords.search_region Coords.Polar ~query:q ~epsilon:0.5 in
  Alcotest.(check bool) "any angle" true (Region.contains region [| 0.4; -3. |])

(* --- Region ----------------------------------------------------------- *)

let test_region_intersects_rect () =
  let region =
    [| Region.linear ~lo:0. ~hi:2.; Region.circular ~lo:3. ~hi:4. |]
  in
  (* The arc [3,4] wraps: angle 3.5 - 2pi ≈ -2.78 also belongs to it. *)
  let touching = rect [| 1.; -2.8 |] [| 3.; -2.7 |] in
  Alcotest.(check bool) "wrapped overlap" true
    (Region.intersects_rect region touching);
  let miss = rect [| 1.; 0. |] [| 3.; 1. |] in
  Alcotest.(check bool) "no overlap" false (Region.intersects_rect region miss)

let test_region_of_rect () =
  let r = rect [| 0.; 1. |] [| 2.; 3. |] in
  let region = Region.of_rect r in
  Alcotest.(check bool) "inside" true (Region.contains region [| 1.; 2. |]);
  Alcotest.(check bool) "outside" false (Region.contains region [| 1.; 4. |])

(* --- properties -------------------------------------------------------- *)

let arb_transform_and_rect_and_point =
  let gen =
    QCheck.Gen.(
      let dim = 3 in
      let coeff = float_range (-5.) 5. in
      let* a = array_size (return dim) coeff in
      let* b = array_size (return dim) coeff in
      let* lo = array_size (return dim) (float_range (-10.) 10.) in
      let* hi = array_size (return dim) (float_range (-10.) 10.) in
      let* p = array_size (return dim) (float_range (-10.) 10.) in
      return (a, b, lo, hi, p))
  in
  QCheck.make gen

let prop_theorem1_safety =
  (* Safe transformations map interior points to interior points and
     exterior points to exterior points — for invertible stretches. *)
  QCheck.Test.make ~name:"Theorem 1: real transforms are safe" ~count:300
    arb_transform_and_rect_and_point (fun (a, b, lo, hi, p) ->
      QCheck.assume (Array.for_all (fun v -> Float.abs v > 1e-3) a);
      let t = Linear_transform.create ~a ~b in
      let r = rect lo hi in
      let r' = Linear_transform.apply_rect t r in
      let p' = Linear_transform.apply t p in
      Rect.contains_point r p = Rect.contains_point r' p'
      || (* boundary points can flip due to rounding; tolerate only those *)
      Rect.mindist p' r' < 1e-6)

let prop_polar_region_superset =
  (* Lemma prerequisite: the Figure-7 region contains every point within
     epsilon of the query. *)
  let gen =
    QCheck.Gen.(
      let* m = float_range 0.1 10. in
      let* alpha = float_range (-3.1) 3.1 in
      let* eps = float_range 0.01 3. in
      let* dm = float_range (-1.) 1. in
      let* dtheta = float_range (-3.1) 3.1 in
      return (m, alpha, eps, dm, dtheta))
  in
  QCheck.Test.make ~name:"polar search region contains the eps-ball"
    ~count:500 (QCheck.make gen) (fun (m, alpha, eps, dm, dtheta) ->
      let q = Simq_dsp.Cpx.polar m alpha in
      let x = Simq_dsp.Cpx.polar (Float.max 0. (m +. dm)) (alpha +. dtheta) in
      let d = Simq_dsp.Cpx.abs (Simq_dsp.Cpx.sub q x) in
      QCheck.assume (d <= eps);
      let region = Coords.search_region Coords.Polar ~query:[| q |] ~epsilon:eps in
      Region.contains region (Coords.encode Coords.Polar [| x |]))

let prop_rect_union_contains =
  let gen =
    QCheck.Gen.(
      let dim = 2 in
      let c = float_range (-10.) 10. in
      let* l1 = array_size (return dim) c in
      let* h1 = array_size (return dim) c in
      let* l2 = array_size (return dim) c in
      let* h2 = array_size (return dim) c in
      return (l1, h1, l2, h2))
  in
  QCheck.Test.make ~name:"union contains both rects" ~count:200
    (QCheck.make gen) (fun (l1, h1, l2, h2) ->
      let a = rect l1 h1 and b = rect l2 h2 in
      let u = Rect.union a b in
      Rect.contains_rect u a && Rect.contains_rect u b)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_theorem1_safety; prop_polar_region_superset; prop_rect_union_contains ]

let () =
  Alcotest.run "simq_geometry"
    [
      ( "point",
        [
          Alcotest.test_case "distance" `Quick test_point_distance;
          Alcotest.test_case "rejects nan" `Quick test_point_create_rejects_nan;
        ] );
      ( "rect",
        [
          Alcotest.test_case "create normalises" `Quick test_rect_create_normalises;
          Alcotest.test_case "contains" `Quick test_rect_contains;
          Alcotest.test_case "set operations" `Quick test_rect_set_ops;
          Alcotest.test_case "measures" `Quick test_rect_measures;
          Alcotest.test_case "of_points" `Quick test_rect_of_points;
          Alcotest.test_case "mindist" `Quick test_mindist;
          Alcotest.test_case "mindist inside" `Quick test_mindist_inside_is_zero;
        ] );
      ( "linear transform",
        [
          Alcotest.test_case "apply" `Quick test_lt_apply;
          Alcotest.test_case "identity" `Quick test_lt_identity;
          Alcotest.test_case "negative stretch safe" `Quick
            test_lt_negative_stretch_safe;
          Alcotest.test_case "compose and inverse" `Quick test_lt_compose_inverse;
        ] );
      ( "complex transform",
        [
          Alcotest.test_case "apply" `Quick test_ct_apply;
          Alcotest.test_case "reverse" `Quick test_ct_reverse;
          Alcotest.test_case "Theorem 2 lowering" `Quick test_theorem2_lowering;
          Alcotest.test_case "Theorem 3 lowering" `Quick test_theorem3_lowering;
          Alcotest.test_case "unsafe lowerings rejected" `Quick
            test_unsafe_lowerings_rejected;
          Alcotest.test_case "paper counterexample in S_rect" `Quick
            test_paper_counterexample_srect;
        ] );
      ( "coords",
        [
          Alcotest.test_case "roundtrip" `Quick test_coords_roundtrip;
          Alcotest.test_case "S_rect preserves distance" `Quick
            test_coords_rect_distance_preserved;
          Alcotest.test_case "search region S_rect" `Quick
            test_search_region_rectangular;
          Alcotest.test_case "search region Figure 7" `Quick
            test_search_region_polar_figure7;
          Alcotest.test_case "search region wraps seam" `Quick
            test_search_region_polar_wraps;
          Alcotest.test_case "small magnitude frees the angle" `Quick
            test_search_region_small_magnitude;
          Alcotest.test_case "decode odd dims" `Quick test_coords_decode_odd_dims;
        ] );
      ( "region",
        [
          Alcotest.test_case "intersects rect with wrap" `Quick
            test_region_intersects_rect;
          Alcotest.test_case "of_rect" `Quick test_region_of_rect;
          Alcotest.test_case "full circle" `Quick
            test_region_full_circle_meets_everything;
        ] );
      ("properties", properties);
    ]
