(* Admission control (lib/admission) and its planner integration: the
   decision is a pure function of workload, budget and registry
   snapshot (identical at every domain count), an admitted run is
   bit-identical to an admission-off run, and a rejected query
   executes nothing — every execution-side counter family stays at
   zero. *)

module Admission = Simq_admission
module Metrics = Simq_obs.Metrics
module Budget = Simq_fault.Budget
module Error = Simq_fault.Error
module Pool = Simq_parallel.Pool
module Generator = Simq_series.Generator
open Simq_tsindex

let fresh_policy () =
  Admission.create ~registry:(Metrics.create_registry ()) ()

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

let workload ?(cardinality = 100) ?(pages = 13) ?(tree_size = 100)
    ?(tree_height = 2) ?(selectivity = 0.1) ?(sketch_levels = 0) () =
  {
    Admission.cardinality; pages; tree_size; tree_height; selectivity;
    sketch_levels;
  }

(* --- decision unit tests --------------------------------------------------- *)

let test_unlimited_budget_admits () =
  let t = fresh_policy () in
  List.iter
    (fun prefer ->
      match
        Admission.decide t (workload ()) ~prefer ~budget:Budget.unlimited
      with
      | Admission.Admit -> ()
      | d ->
        Alcotest.failf "unlimited budget must admit, got %s"
          (Admission.decision_name d))
    [ Admission.Scan_path; Admission.Index_path ]

let test_scan_rejection_is_exact () =
  let t = fresh_policy () in
  match
    Admission.decide t (workload ~cardinality:100 ())
      ~prefer:Admission.Scan_path
      ~budget:(Budget.create ~max_comparisons:50 ())
  with
  | Admission.Reject { resource; estimated; limit } ->
    Alcotest.(check string)
      "resource" "comparisons" (Error.resource_name resource);
    Alcotest.(check int) "estimated = cardinality (exact)" 100 estimated;
    Alcotest.(check int) "limit carried" 50 limit
  | d ->
    Alcotest.failf "expected a rejection, got %s" (Admission.decision_name d)

let test_index_degrades_to_fitting_scan () =
  let t = fresh_policy () in
  match
    Admission.decide t (workload ()) ~prefer:Admission.Index_path
      ~budget:
        (Budget.create ~max_node_accesses:0 ~max_comparisons:1000
           ~max_page_reads:1000 ())
  with
  | Admission.Degrade_to_scan -> ()
  | d ->
    Alcotest.failf "expected degrade_to_scan, got %s"
      (Admission.decision_name d)

let test_reject_when_no_path_fits () =
  let t = fresh_policy () in
  match
    Admission.decide t (workload ~cardinality:100 ())
      ~prefer:Admission.Index_path
      ~budget:(Budget.create ~max_node_accesses:0 ~max_page_reads:10 ())
  with
  | Admission.Reject { resource; _ } ->
    (* The reported reason is the scan's first violated resource: with
       no scan path left, page reads are checked before comparisons. *)
    Alcotest.(check string)
      "rejected on the scan's page reads" "page_reads"
      (Error.resource_name resource)
  | d ->
    Alcotest.failf "expected a rejection, got %s" (Admission.decision_name d)

let test_rejected_error_is_typed () =
  let reject =
    { Admission.resource = Error.Comparisons; estimated = 9; limit = 3 }
  in
  let e = Admission.error_of_reject reject in
  Alcotest.(check string) "kind" "rejected:comparisons" (Error.kind e);
  let msg = Error.to_string e in
  Alcotest.(check bool)
    "message mentions admission control" true
    (contains msg "admission control")

let test_deadline_prediction_needs_history () =
  let registry = Metrics.create_registry () in
  let t = Admission.create ~registry () in
  let tight = Budget.create ~deadline_s:0.002 () in
  (* No timer history: the deadline cannot be predicted, so the budget
     alone cannot reject. *)
  (match Admission.decide t (workload ()) ~prefer:Admission.Scan_path ~budget:tight with
  | Admission.Admit -> ()
  | d -> Alcotest.failf "no history must admit, got %s" (Admission.decision_name d));
  (* Eight observations around a second: the p95 bucket bound now
     dwarfs a 2 ms deadline. *)
  let h = Metrics.histogram ~registry "simq_timer_seconds" in
  Metrics.with_enabled true (fun () ->
      for _ = 1 to 8 do
        Metrics.observe h 1.0
      done);
  (match Admission.decide t (workload ()) ~prefer:Admission.Scan_path ~budget:tight with
  | Admission.Reject { resource; _ } ->
    Alcotest.(check string) "deadline rejection" "wall_clock"
      (Error.resource_name resource)
  | d -> Alcotest.failf "expected deadline rejection, got %s" (Admission.decision_name d));
  (* A roomy deadline still admits against the same history. *)
  match
    Admission.decide t (workload ()) ~prefer:Admission.Scan_path
      ~budget:(Budget.create ~deadline_s:3600. ())
  with
  | Admission.Admit -> ()
  | d -> Alcotest.failf "roomy deadline must admit, got %s" (Admission.decision_name d)

(* A query is admitted while every estimate fits its limit: the index
   comparison estimate 2 * sel * cardinality = 20 admits against a
   limit of 20, and one less sends it to a scan that fits no better. *)
let test_estimate_at_limit_admits () =
  let t = Admission.create ~registry:(Metrics.create_registry ()) () in
  let w = workload ~cardinality:1000 ~selectivity:0.01 () in
  Alcotest.(check int)
    "index comparisons = 2 * sel * cardinality" 20
    (Admission.estimate t w).Admission.index_comparisons;
  let decide limit =
    Admission.decide t w ~prefer:Admission.Index_path
      ~budget:(Budget.create ~max_comparisons:limit ())
  in
  (match decide 20 with
  | Admission.Admit -> ()
  | d -> Alcotest.failf "estimate = limit must admit, got %s"
           (Admission.decision_name d));
  match decide 19 with
  | Admission.Reject _ -> ()
  | d -> Alcotest.failf "estimate > limit must reject, got %s"
           (Admission.decision_name d)

(* --- planner integration --------------------------------------------------- *)

let dataset =
  Dataset.of_series ~pool:Pool.sequential ~name:"admission"
    (Generator.random_walks ~seed:420 ~count:48 ~n:32)

let index = Kindex.build dataset
let stats = Planner.collect ~samples:500 ~seed:421 dataset
let query = (Dataset.get dataset 0).Dataset.series

let starved_budget () =
  Budget.create ~max_page_reads:3 ~max_node_accesses:0 ()

let roomy_budget () =
  Budget.create ~max_page_reads:1000 ~max_comparisons:1000
    ~max_node_accesses:1000 ()

let run ?pool ?admission ~budget ~epsilon () =
  Planner.range_resilient ?pool ~stats ~budget ?admission index ~query
    ~epsilon

let sorted_ids answers =
  List.sort compare
    (List.map fst answers)

let test_rejection_before_any_execution () =
  let registry = Metrics.create_registry () in
  let outcome =
    Metrics.with_enabled true (fun () ->
        Metrics.reset ();
        run ~pool:Pool.sequential ~admission:(Admission.create ~registry ())
          ~budget:(starved_budget ()) ~epsilon:2.0 ())
  in
  (match outcome with
  | Error (Error.Rejected _) -> ()
  | Error e -> Alcotest.failf "expected Rejected, got %s" (Error.kind e)
  | Ok _ -> Alcotest.fail "a starved budget must be rejected");
  let total ?registry ?labels family =
    Metrics.counter_total (Metrics.counter ?registry ?labels family)
  in
  Alcotest.(check int) "rejection counted" 1
    (total ~registry ~labels:[ ("decision", "reject") ]
       "simq_admission_decisions_total");
  Alcotest.(check int) "not an execution failure" 0
    (total "simq_planner_failures_total");
  Alcotest.(check int) "no index attempt" 0
    (total "simq_rtree_node_visits_total");
  List.iter
    (fun family ->
      Alcotest.(check int)
        (family ^ " untouched")
        0
        (Metrics.counter_total (Metrics.counter family)))
    [
      "simq_buffer_pool_hits_total"; "simq_buffer_pool_misses_total";
      "simq_scan_candidates_total"; "simq_kindex_candidates_total";
    ]

let test_admitted_run_bit_identical_to_admission_off () =
  let budget = roomy_budget () in
  let off = run ~pool:Pool.sequential ~budget ~epsilon:2.0 () in
  let on =
    run ~pool:Pool.sequential ~admission:(fresh_policy ()) ~budget
      ~epsilon:2.0 ()
  in
  match (off, on) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "decision recorded" true
      (b.Planner.admission = Some Admission.Admit
      || b.Planner.admission = Some Admission.Degrade_to_scan);
    Alcotest.(check (list int))
      "identical answer ids" (sorted_ids a.Planner.answers)
      (sorted_ids b.Planner.answers);
    Alcotest.(check bool) "identical distances" true
      (List.map snd a.Planner.answers = List.map snd b.Planner.answers)
  | _ -> Alcotest.fail "roomy budget must complete on both sides"

let test_decisions_identical_at_every_domain_count () =
  let epsilons = [ 0.5; 1.5; 3.0; 6.0 ] in
  let budgets =
    [ starved_budget (); roomy_budget ();
      Budget.create ~max_comparisons:6 () ]
  in
  let outcomes_at domains =
    let pool = Pool.create ~domains in
    let policy = fresh_policy () in
    let outcomes =
      List.concat_map
        (fun epsilon ->
          List.map
            (fun budget ->
              match run ~pool ~admission:policy ~budget ~epsilon () with
              | Ok r ->
                ( Option.map Admission.decision_name r.Planner.admission,
                  Ok (sorted_ids r.Planner.answers) )
              | Error e ->
                ((match e with Error.Rejected _ -> Some "reject" | _ -> None),
                 Result.Error (Error.kind e)))
            budgets)
        epsilons
    in
    Pool.shutdown pool;
    outcomes
  in
  let reference = outcomes_at 1 in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "decisions and outcomes at %d domains" domains)
        true
        (outcomes_at domains = reference))
    [ 2; 4 ];
  (* Rejections are precise: a rejected (epsilon, budget) case also
     fails when run without admission control. *)
  let cases =
    List.concat_map (fun epsilon -> List.map (fun b -> (epsilon, b)) budgets)
      epsilons
  in
  let rejected =
    List.filter_map
      (fun ((epsilon, budget), (decision, _)) ->
        if decision = Some "reject" then Some (epsilon, budget) else None)
      (List.combine cases reference)
  in
  Alcotest.(check bool) "some case is rejected" true (rejected <> []);
  List.iter
    (fun (epsilon, budget) ->
      match run ~pool:Pool.sequential ~budget ~epsilon () with
      | Error _ -> ()
      | Ok _ ->
        Alcotest.failf "eps %g: rejected, yet fits without admission" epsilon)
    rejected

let test_admission_decision_metric_counts () =
  let registry = Metrics.create_registry () in
  let policy = Admission.create ~registry () in
  Metrics.with_enabled true (fun () ->
      ignore
        (Admission.decide policy (workload ()) ~prefer:Admission.Scan_path
           ~budget:Budget.unlimited);
      ignore
        (Admission.decide policy
           (workload ~cardinality:100 ())
           ~prefer:Admission.Scan_path
           ~budget:(Budget.create ~max_comparisons:5 ())));
  let total d =
    Metrics.counter_total
      (Metrics.counter ~registry ~labels:[ ("decision", d) ]
         "simq_admission_decisions_total")
  in
  Alcotest.(check int) "admit counted" 1 (total "admit");
  Alcotest.(check int) "reject counted" 1 (total "reject");
  Alcotest.(check int) "degrade not counted" 0 (total "degrade_to_scan")

(* --- join integration ------------------------------------------------------ *)

(* The scan join's n (n - 1) / 2 comparison count is a catalogue fact:
   a comparison limit below it rejects before any series is
   materialised, a limit above it admits a run bit-identical to the
   admission-off scan. *)
let test_join_scan_admission () =
  let n = Dataset.cardinality dataset in
  let comparisons = n * (n - 1) / 2 in
  let epsilon = 2.0 in
  let plain = Join.scan_early_abandon ~pool:Pool.sequential index ~epsilon in
  (match
     Join.scan_checked ~pool:Pool.sequential
       ~budget:(Budget.create ~max_comparisons:(comparisons - 1) ())
       ~admission:(fresh_policy ()) index ~epsilon
   with
  | Error (Error.Rejected _) -> ()
  | Error e -> Alcotest.failf "expected Rejected, got %s" (Error.kind e)
  | Ok _ -> Alcotest.fail "an over-cap join must be rejected");
  match
    Join.scan_checked ~pool:Pool.sequential
      ~budget:(Budget.create ~max_comparisons:comparisons ())
      ~admission:(fresh_policy ()) index ~epsilon
  with
  | Ok r ->
    Alcotest.(check bool) "decision reported" true
      (r.Join.admission = Some Admission.Admit);
    Alcotest.(check bool) "pairs bit-identical" true
      (r.Join.pairs = plain.Join.pairs);
    Alcotest.(check int) "distance computations"
      plain.Join.distance_computations r.Join.distance_computations
  | Error e -> Alcotest.failf "a fitting join must run: %s" (Error.kind e)

(* Index PAIRS is vetted like the scan join, on the same catalogue
   pair count: over the cap it is rejected before any node is visited
   or any candidate compared; at a fitting cap it runs unchanged, its
   decision reported. *)
let test_join_index_admission () =
  let n = Dataset.cardinality dataset in
  let comparisons = n * (n - 1) / 2 in
  let epsilon = 2.0 in
  let plain = Result.get_ok (Join.index index ~epsilon) in
  let registry = Metrics.create_registry () in
  let rejected =
    Metrics.with_enabled true (fun () ->
        Metrics.reset ();
        Join.index
          ~budget:(Budget.create ~max_comparisons:(comparisons - 1) ())
          ~admission:(Admission.create ~registry ())
          index ~epsilon)
  in
  (match rejected with
  | Error (Error.Rejected _ as e) ->
    Alcotest.(check string) "kind" "rejected:comparisons" (Error.kind e)
  | Error e -> Alcotest.failf "expected Rejected, got %s" (Error.kind e)
  | Ok _ -> Alcotest.fail "an over-cap index join must be rejected");
  Alcotest.(check int) "rejection counted" 1
    (Metrics.counter_total
       (Metrics.counter ~registry ~labels:[ ("decision", "reject") ]
          "simq_admission_decisions_total"));
  List.iter
    (fun family ->
      Alcotest.(check int)
        (family ^ " untouched")
        0
        (Metrics.counter_total (Metrics.counter family)))
    [
      "simq_rtree_node_visits_total"; "simq_kindex_candidates_total";
      "simq_join_comparisons_total";
    ];
  match
    Join.index
      ~budget:(Budget.create ~max_comparisons:(n * n) ())
      ~admission:(fresh_policy ()) index ~epsilon
  with
  | Ok r ->
    Alcotest.(check bool) "decision reported" true
      (r.Join.admission = Some Admission.Admit);
    Alcotest.(check (list (pair int int))) "pairs" plain.Join.pairs
      r.Join.pairs;
    Alcotest.(check int) "distance computations"
      plain.Join.distance_computations r.Join.distance_computations;
    Alcotest.(check int) "node accesses" plain.Join.node_accesses
      r.Join.node_accesses
  | Error e -> Alcotest.failf "a fitting join must run: %s" (Error.kind e)

let () =
  Alcotest.run "simq_admission"
    [
      ( "decide",
        [
          Alcotest.test_case "unlimited budget admits" `Quick
            test_unlimited_budget_admits;
          Alcotest.test_case "scan rejection is exact" `Quick
            test_scan_rejection_is_exact;
          Alcotest.test_case "index degrades to a fitting scan" `Quick
            test_index_degrades_to_fitting_scan;
          Alcotest.test_case "reject when no path fits" `Quick
            test_reject_when_no_path_fits;
          Alcotest.test_case "rejected error is typed" `Quick
            test_rejected_error_is_typed;
          Alcotest.test_case "deadline prediction needs history" `Quick
            test_deadline_prediction_needs_history;
          Alcotest.test_case "an estimate at its limit admits" `Quick
            test_estimate_at_limit_admits;
        ] );
      ( "planner",
        [
          Alcotest.test_case "rejection before any execution" `Quick
            test_rejection_before_any_execution;
          Alcotest.test_case "admitted run bit-identical to admission-off"
            `Quick test_admitted_run_bit_identical_to_admission_off;
          Alcotest.test_case "decisions identical at every domain count"
            `Quick test_decisions_identical_at_every_domain_count;
          Alcotest.test_case "decision metric counts" `Quick
            test_admission_decision_metric_counts;
          Alcotest.test_case "join scan admission" `Quick
            test_join_scan_admission;
          Alcotest.test_case "join index admission" `Quick
            test_join_index_admission;
        ] );
    ]
