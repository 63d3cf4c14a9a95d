(* Smoke tests for the experiment harness: the fast configurations must
   run to completion and their paper-vs-measured claims must hold. The
   timing-sensitive figures are exercised for completion only (CI boxes
   are noisy); the structural claims are asserted. *)

open Simq_experiments

let claims_hold name claims =
  List.iter
    (fun (c : Simq_report.Expectation.claim) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s (%s)" name c.Simq_report.Expectation.expectation
           c.Simq_report.Expectation.measured)
        true
        (c.Simq_report.Expectation.verdict <> Simq_report.Expectation.Fails))
    claims;
  Alcotest.(check bool) (name ^ " produced claims") true (claims <> [])

let test_edit_dp () = claims_hold "edit_dp" (Experiments.edit_dp ~fast:true)
let test_eq10 () = claims_hold "eq10" (Experiments.eq10 ~fast:true)
let test_vptree () = claims_hold "vptree" (Experiments.vptree ~fast:true)

let test_ablation_repr () =
  claims_hold "ablation_repr" (Experiments.ablation_repr ~fast:true)

let test_ablation_k () =
  claims_hold "ablation_k" (Experiments.ablation_k ~fast:true)

let test_table1_structure () =
  (* The structural Table 1 claims (answer sizes) are deterministic;
     filter out the timing ones. *)
  let claims = Experiments.table1 ~fast:true in
  let structural =
    List.filter
      (fun (c : Simq_report.Expectation.claim) ->
        let e = c.Simq_report.Expectation.expectation in
        String.length e > 0
        && (String.starts_with ~prefix:"method d finds" e
           || String.starts_with ~prefix:"the untransformed join" e))
      claims
  in
  Alcotest.(check int) "two structural claims" 2 (List.length structural);
  claims_hold "table1 structure" structural

let test_unknown_experiment () =
  match Experiments.run ~fast:true "nonsense" with
  | Error msg ->
    Alcotest.(check bool) "lists available" true
      (String.length msg > 0)
  | Ok () -> Alcotest.fail "expected an error"

let () =
  Alcotest.run "simq_experiments"
    [
      ( "framework",
        [
          Alcotest.test_case "edit_dp" `Quick test_edit_dp;
          Alcotest.test_case "eq10" `Quick test_eq10;
          Alcotest.test_case "vptree" `Quick test_vptree;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "representation" `Slow test_ablation_repr;
          Alcotest.test_case "feature count" `Slow test_ablation_k;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1 structural claims" `Slow
            test_table1_structure;
          Alcotest.test_case "unknown name" `Quick test_unknown_experiment;
        ] );
    ]
