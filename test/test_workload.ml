open Simq_workload
module Stats = Simq_series.Stats
module Distance = Simq_series.Distance
module Normal_form = Simq_series.Normal_form

(* --- Stocklike --------------------------------------------------------- *)

let test_stocklike_shape () =
  let s = Stocklike.generate (Random.State.make [| 1 |]) ~n:128 in
  Alcotest.(check int) "length" 128 (Array.length s);
  Array.iter
    (fun v -> Alcotest.(check bool) "positive price" true (v > 0.))
    s

let test_stocklike_reproducible () =
  let a = Stocklike.batch ~seed:42 ~count:5 ~n:64 in
  let b = Stocklike.batch ~seed:42 ~count:5 ~n:64 in
  Array.iteri
    (fun idx s ->
      Alcotest.(check bool) "same" true (Simq_series.Series.equal s b.(idx)))
    a

let test_stocklike_series_differ () =
  let batch = Stocklike.batch ~seed:7 ~count:10 ~n:64 in
  let distinct = ref true in
  for i = 0 to 8 do
    if Simq_series.Series.equal batch.(i) batch.(i + 1) then distinct := false
  done;
  Alcotest.(check bool) "series differ" true !distinct

let test_correlated_pair () =
  let state = Random.State.make [| 3 |] in
  let a, b = Stocklike.correlated_pair state ~n:256 ~rho:0.95 in
  (* Correlation of log-returns should be close to rho. *)
  let returns s =
    Array.init (Array.length s - 1) (fun t -> log (s.(t + 1) /. s.(t)))
  in
  let corr = Stats.correlation (returns a) (returns b) in
  Alcotest.(check bool)
    (Printf.sprintf "high correlation (%.2f)" corr)
    true (corr > 0.8);
  let state = Random.State.make [| 4 |] in
  let c, d = Stocklike.correlated_pair state ~n:256 ~rho:(-0.95) in
  let anti = Stats.correlation (returns c) (returns d) in
  Alcotest.(check bool)
    (Printf.sprintf "anti correlation (%.2f)" anti)
    true (anti < -0.8)

let test_correlated_pair_validation () =
  Alcotest.check_raises "rho out of range"
    (Invalid_argument "Stocklike.correlated_pair: rho must be in [-1, 1]")
    (fun () ->
      ignore (Stocklike.correlated_pair (Random.State.make [| 1 |]) ~n:8 ~rho:2.))

(* --- Queries ------------------------------------------------------------ *)

let test_threshold_for_count () =
  let distances = [| 5.; 1.; 3.; 2.; 4. |] in
  Alcotest.(check (float 0.)) "1st" 1. (Queries.threshold_for_count distances ~count:1);
  Alcotest.(check (float 0.)) "3rd" 3. (Queries.threshold_for_count distances ~count:3);
  Alcotest.(check (float 0.)) "5th" 5. (Queries.threshold_for_count distances ~count:5);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Queries.threshold_for_count: count out of range")
    (fun () -> ignore (Queries.threshold_for_count distances ~count:6))

let test_epsilon_calibration_hits_target () =
  let batch = Stocklike.batch ~seed:11 ~count:100 ~n:64 in
  let normals = Array.map Normal_form.normalise batch in
  let query = normals.(0) in
  List.iter
    (fun target ->
      let eps = Queries.epsilon_for_answer_size ~normals ~query ~target in
      let answers =
        Array.to_list normals
        |> List.filter (fun s -> Distance.euclidean s query <= eps)
      in
      Alcotest.(check bool)
        (Printf.sprintf "target %d answers (got %d)" target
           (List.length answers))
        true
        (List.length answers >= target))
    [ 1; 10; 50; 100 ]

let test_perturb_bounded () =
  let state = Random.State.make [| 5 |] in
  let s = Array.make 32 10. in
  let q = Queries.perturb state s ~amount:0.5 in
  Array.iter
    (fun v -> Alcotest.(check bool) "within band" true (Float.abs (v -. 10.) <= 0.5))
    q

let () =
  Alcotest.run "simq_workload"
    [
      ( "stocklike",
        [
          Alcotest.test_case "shape" `Quick test_stocklike_shape;
          Alcotest.test_case "reproducible" `Quick test_stocklike_reproducible;
          Alcotest.test_case "series differ" `Quick test_stocklike_series_differ;
          Alcotest.test_case "correlated pairs" `Quick test_correlated_pair;
          Alcotest.test_case "validation" `Quick test_correlated_pair_validation;
        ] );
      ( "queries",
        [
          Alcotest.test_case "threshold for count" `Quick test_threshold_for_count;
          Alcotest.test_case "epsilon calibration" `Quick
            test_epsilon_calibration_hits_target;
          Alcotest.test_case "perturb bounded" `Quick test_perturb_bounded;
        ] );
    ]
