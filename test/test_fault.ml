(* The fault layer (lib/fault) and the safety invariant the checked
   query entry points promise: under any combination of injected
   transient faults and resource budgets, a query either returns the
   exact sequential-reference answer or a typed [Simq_fault.Error.t] —
   never a wrong answer, never a raw exception — with outcomes
   reproducible for the same seed and identical across domain counts. *)

module Error = Simq_fault.Error
module Injector = Simq_fault.Injector
module Budget = Simq_fault.Budget
module Retry = Simq_fault.Retry
module Metrics = Simq_obs.Metrics
module Profile = Simq_obs.Profile
module Pool = Simq_parallel.Pool
open Simq_tsindex
module Generator = Simq_series.Generator

(* [planner_counts f] runs [f] with metrics on and returns its value
   with the deltas of the planner's outcome families: queries planned,
   degradations and failures. *)
let planner_counts f =
  let families =
    [
      "simq_planner_path_index_total"; "simq_planner_path_scan_total";
      "simq_planner_degraded_total"; "simq_planner_failures_total";
    ]
  in
  let totals () =
    List.map (fun f -> Metrics.counter_total (Metrics.counter f)) families
  in
  Metrics.with_enabled true @@ fun () ->
  let before = totals () in
  let v = f () in
  match List.map2 ( - ) (totals ()) before with
  | [ index; scan; degraded; failures ] ->
    (v, `Queries (index + scan), `Degraded degraded, `Failures failures)
  | _ -> assert false

(* --- Injector ------------------------------------------------------------- *)

let test_injector_schedule () =
  let inj =
    Injector.create
      ~node_accesses:(Injector.transient ~schedule:[ 2; 5 ] ())
      ~seed:7 ()
  in
  let outcomes =
    List.init 6 (fun _ ->
        match Injector.check inj Injector.Node_access with
        | () -> 0
        | exception Injector.Transient_fault { ordinal; _ } -> ordinal)
  in
  Alcotest.(check (list int)) "faults exactly at scheduled ordinals"
    [ 0; 2; 0; 0; 5; 0 ] outcomes;
  Alcotest.(check int) "accesses counted" 6
    (Injector.accesses inj Injector.Node_access);
  Alcotest.(check int) "faults counted" 2
    (Injector.faults inj Injector.Node_access);
  Alcotest.(check int) "sites independent" 0
    (Injector.accesses inj Injector.Page_read)

let fault_ordinals inj site n =
  List.filteri (fun _ o -> o > 0)
    (List.init n (fun _ ->
         match Injector.check inj site with
         | () -> 0
         | exception Injector.Transient_fault { ordinal; _ } -> ordinal))

let test_injector_seed_reproducible () =
  let make () =
    Injector.create
      ~page_reads:(Injector.transient ~probability:0.3 ())
      ~seed:4242 ()
  in
  Alcotest.(check (list int)) "same seed, same fault stream"
    (fault_ordinals (make ()) Injector.Page_read 200)
    (fault_ordinals (make ()) Injector.Page_read 200)

let test_injector_validation () =
  Alcotest.check_raises "probability out of range"
    (Invalid_argument "Injector.transient: probability must be in [0, 1]")
    (fun () -> ignore (Injector.transient ~probability:1.5 ()));
  Alcotest.check_raises "0 is not a valid ordinal"
    (Invalid_argument "Injector.transient: schedule ordinals are 1-based")
    (fun () -> ignore (Injector.transient ~schedule:[ 0 ] ()))

(* --- Budget ---------------------------------------------------------------- *)

let test_budget_unlimited () =
  Alcotest.(check bool) "unlimited" true (Budget.is_unlimited Budget.unlimited);
  Alcotest.(check bool) "create () = unlimited" true
    (Budget.is_unlimited (Budget.create ()));
  Alcotest.(check bool) "no state installed for unlimited budgets" true
    (Budget.state_opt Budget.unlimited = None);
  (* A fault plan alone makes a state but sets no limit. *)
  let faults = Budget.create ~faults:(Injector.create ~seed:1 ()) () in
  Alcotest.(check bool) "faults alone are unlimited" true
    (Budget.is_unlimited faults);
  Alcotest.(check bool) "faults alone make a state" true
    (Budget.state_opt faults <> None);
  Alcotest.check_raises "negative limit"
    (Invalid_argument "Budget.create: limits must be >= 0") (fun () ->
      ignore (Budget.create ~max_comparisons:(-1) ()))

(* Budgets here set a limit, so each has a state. *)
let state_of budget = Budget.state_opt budget

let test_budget_limit_latches () =
  let s = state_of (Budget.create ~max_comparisons:0 ()) in
  (match Budget.comparisons s 1 with
  | () -> Alcotest.fail "expected Exceeded"
  | exception Budget.Exceeded (Error.Budget_exceeded { resource; spent; limit })
    ->
    Alcotest.(check string) "resource" "comparisons"
      (Error.resource_name resource);
    Alcotest.(check int) "spent" 1 spent;
    Alcotest.(check int) "limit" 0 limit
  | exception Budget.Exceeded e ->
    Alcotest.failf "unexpected error %s" (Error.to_string e));
  (* The error is latched: every later guard on any domain re-raises the
     same error — that is the cooperative-cancellation signal. *)
  match Budget.page_read s with
  | () -> Alcotest.fail "cancelled state must keep failing"
  | exception Budget.Exceeded e ->
    Alcotest.(check string) "latched kind" "budget_exceeded:comparisons"
      (Error.kind e)

let test_budget_accounting () =
  let bstate =
    state_of (Budget.create ~max_page_reads:10 ~max_comparisons:100 ())
  in
  let s = Option.get bstate in
  Budget.page_read bstate;
  Budget.page_read bstate;
  Budget.page_read bstate;
  Budget.comparisons bstate 4;
  Alcotest.(check int) "page reads" 3 (Budget.spent s Error.Page_reads);
  Alcotest.(check int) "comparisons" 4 (Budget.spent s Error.Comparisons);
  Alcotest.(check int) "wall clock has no count" 0
    (Budget.spent s Error.Wall_clock);
  (* Unlimited resources skip accounting entirely (the hot-path cost of
     an uncapped charge is one comparison). *)
  Budget.node_access bstate;
  Alcotest.(check int) "uncapped resources are not counted" 0
    (Budget.spent s Error.Node_accesses)

(* A guard consults the fault plan first: a faulted access is neither
   checked nor charged, and the retried access is a new ordinal. *)
let test_budget_guard_faults_first () =
  let bstate =
    state_of
      (Budget.create ~max_node_accesses:10
         ~faults:
           (Injector.create
              ~node_accesses:(Injector.transient ~schedule:[ 1 ] ())
              ~seed:3 ())
         ())
  in
  (match Budget.node_access bstate with
  | () -> Alcotest.fail "expected the scheduled fault"
  | exception Injector.Transient_fault { ordinal; _ } ->
    Alcotest.(check int) "first ordinal" 1 ordinal);
  let s = Option.get bstate in
  Alcotest.(check int) "faulted access not charged" 0
    (Budget.spent s Error.Node_accesses);
  Budget.node_access bstate;
  Alcotest.(check int) "retried access charged" 1
    (Budget.spent s Error.Node_accesses);
  (* The page site has no plan: page reads never fault. *)
  Budget.page_read bstate

let test_budget_deadline () =
  let s = state_of (Budget.create ~deadline_s:0. ()) in
  (* [deadline_s = 0.] expires as soon as any wall-clock time passes;
     let the clock tick past the start stamp first. *)
  Unix.sleepf 1e-3;
  match Budget.comparisons s 0 with
  | () -> Alcotest.fail "expected Timeout"
  | exception Budget.Exceeded e ->
    Alcotest.(check string) "kind" "timeout" (Error.kind e)

let test_error_kinds () =
  let timeout = Error.Timeout { elapsed_s = 1.; deadline_s = 0.5 } in
  let io = Error.Io_failed { site = "page_read"; attempts = 3 } in
  let b r = Error.Budget_exceeded { resource = r; spent = 9; limit = 4 } in
  Alcotest.(check string) "timeout" "timeout" (Error.kind timeout);
  Alcotest.(check string) "io" "io_failed" (Error.kind io);
  Alcotest.(check string) "budget" "budget_exceeded:node_accesses"
    (Error.kind (b Error.Node_accesses));
  Alcotest.(check bool) "same kind ignores payload" true
    (Error.same_kind (b Error.Page_reads)
       (Error.Budget_exceeded
          { resource = Error.Page_reads; spent = 100; limit = 4 }));
  Alcotest.(check bool) "different kinds differ" false
    (Error.same_kind timeout io);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "printable: %s" (Error.kind e))
        true
        (String.length (Error.to_string e) > 0))
    [ timeout; io; b Error.Comparisons ]

(* --- Retry ----------------------------------------------------------------- *)

let test_retry_recovers () =
  let inj =
    Injector.create
      ~page_reads:(Injector.transient ~schedule:[ 1 ] ())
      ~seed:1 ()
  in
  let profile = Profile.create () in
  let result, op =
    Profile.with_op (Some profile) "op" @@ fun op ->
    ( Retry.with_retries ~profile (fun _ ->
          (* The node of the failing attempt does not take the event:
             the retry belongs to the operator that started the
             loop. *)
          Profile.with_op (Some profile) "attempt" @@ fun _ ->
          Injector.check inj Injector.Page_read;
          "done"),
      op )
  in
  Alcotest.(check bool) "second attempt succeeds" true (result = Ok "done");
  Alcotest.(check (list string)) "one abandoned attempt, on the operator"
    [ "retry: attempt 1 abandoned" ]
    (Option.fold ~none:[] ~some:Profile.events op)

let test_retry_exhausts () =
  let attempts = ref 0 in
  match
    Retry.with_retries (fun _ ->
        incr attempts;
        raise
          (Injector.Transient_fault
             { site = Injector.Node_access; ordinal = !attempts }))
  with
  | Ok _ -> Alcotest.fail "expected Io_failed"
  | Error (Error.Io_failed { site; attempts = reported }) ->
    Alcotest.(check string) "site" "node_access" site;
    Alcotest.(check int) "every attempt used" Retry.max_attempts reported;
    Alcotest.(check int) "f called per attempt" 3 !attempts
  | Error e -> Alcotest.failf "unexpected error %s" (Error.to_string e)

let test_retry_never_retries_budgets () =
  let attempts = ref 0 in
  let blown =
    Error.Budget_exceeded
      { resource = Error.Comparisons; spent = 5; limit = 4 }
  in
  (match
     Retry.with_retries (fun _ ->
         incr attempts;
         raise (Budget.Exceeded blown))
   with
  | Ok _ -> Alcotest.fail "expected the budget error"
  | Error e ->
    Alcotest.(check bool) "carried error returned" true (Error.same_kind e blown));
  Alcotest.(check int) "no retry on blown budget" 1 !attempts;
  (* Anything else is a programming error and must propagate. *)
  Alcotest.check_raises "other exceptions propagate" (Failure "boom")
    (fun () -> ignore (Retry.with_retries (fun _ -> failwith "boom")))

(* --- Query-level fixtures --------------------------------------------------- *)

let pools =
  [ (1, Pool.sequential); (2, Pool.create ~domains:2); (4, Pool.create ~domains:4) ]

let dataset_of ~seed ~count ~n =
  Dataset.of_series ~pool:Pool.sequential ~name:"fault"
    (Generator.random_walks ~seed ~count ~n)

(* Shared datasets: the properties below draw from this pool instead of
   rebuilding (and re-transforming) series per case. Fault plans and
   budget states live on each query's attempts, never on the datasets,
   which the properties verify implicitly by reusing the datasets
   hundreds of times. *)
let datasets = Array.init 4 (fun i -> dataset_of ~seed:(100 + i) ~count:36 ~n:32)

let spec_of_index i =
  match i mod 5 with
  | 0 -> Spec.Identity
  | 1 -> Spec.Moving_average 3
  | 2 -> Spec.Moving_average 8
  | 3 -> Spec.Reverse
  | _ -> Spec.Warp 2

(* Complex stretches are only safe in S_pol (Theorem 3). *)
let safe_spec representation spec =
  match (representation, spec) with
  | Simq_geometry.Coords.Rectangular, (Spec.Moving_average _ | Spec.Warp _) ->
    Spec.Reverse
  | _ -> spec

let query_for dataset spec seed =
  let entries = Dataset.entries dataset in
  let base = entries.(seed mod Array.length entries) in
  let state = Random.State.make [| seed |] in
  let perturbed =
    Array.map (fun v -> v +. Random.State.float state 2. -. 1.) base.Dataset.series
  in
  match spec with
  | Spec.Warp m -> Simq_series.Warp.expand m perturbed
  | _ -> perturbed

let sorted_ids answers =
  List.sort compare
    (List.map fst answers)

let reference_ids dataset spec query epsilon =
  sorted_ids (Seqscan.reference ~spec dataset ~query ~epsilon)

(* --- Safety property -------------------------------------------------------- *)

(* One randomized resilient-execution scenario: a seeded fault plan on
   both fault sites carried by the budget, an optional resource limit,
   and a planner query.
   The safety invariant allows exactly two outcomes. *)

let arb_scenario =
  QCheck.make
    ~print:(fun (dseed, qseed, eps, node_p, page_p, sched, fseed, bkind) ->
      Printf.sprintf
        "dseed=%d qseed=%d eps=%g node_p=%g page_p=%g sched=[%s] fseed=%d \
         bkind=%d"
        dseed qseed eps node_p page_p
        (String.concat ";" (List.map string_of_int sched))
        fseed bkind)
    QCheck.Gen.(
      let* dseed = int_range 0 3 in
      let* qseed = int_range 0 1000 in
      let* eps = float_range 0.1 12. in
      let* node_p = float_range 0. 0.15 in
      let* page_p = float_range 0. 0.05 in
      let* sched = list_size (int_range 0 3) (int_range 1 40) in
      let* fseed = int_range 0 10_000 in
      let* bkind = int_range 0 3 in
      return (dseed, qseed, eps, node_p, page_p, sched, fseed, bkind))

let budget_of_scenario ~faults bkind qseed =
  match bkind with
  | 0 -> Budget.create ~faults ()
  | 1 -> Budget.create ~max_node_accesses:(qseed mod 3) ~faults ()
  | 2 -> Budget.create ~max_comparisons:(qseed mod 25) ~faults ()
  | _ -> Budget.create ~max_page_reads:(qseed mod 4) ~faults ()

let prop_safety =
  QCheck.Test.make
    ~name:
      "resilient query under faults+budget: exact reference answer or typed \
       error, reproducible per seed"
    ~count:250 arb_scenario
    (fun (dseed, qseed, eps, node_p, page_p, sched, fseed, bkind) ->
      let dataset = datasets.(dseed) in
      let representation =
        if qseed mod 2 = 0 then Simq_geometry.Coords.Polar
        else Simq_geometry.Coords.Rectangular
      in
      let spec = safe_spec representation (spec_of_index qseed) in
      let query = query_for dataset spec qseed in
      let run () =
        let faults =
          Injector.create
            ~page_reads:(Injector.transient ~probability:page_p ())
            ~node_accesses:
              (Injector.transient ~probability:node_p ~schedule:sched ())
            ~seed:fseed ()
        in
        let budget = budget_of_scenario ~faults bkind qseed in
        let index =
          Kindex.build
            ~config:{ Feature.k = 2; representation }
            ~max_fill:8 dataset
        in
        planner_counts (fun () ->
            Planner.range_resilient ~pool:Pool.sequential ~spec ~budget index
              ~query ~epsilon:eps)
      in
      let outcome, `Queries queries, `Degraded degraded, `Failures failures =
        run ()
      in
      let expected = reference_ids dataset spec query eps in
      (match outcome with
      | Ok r ->
        (* Degraded or not: the answer set must be the Lemma 1 answer. *)
        Alcotest.(check (list int)) "answers = sequential reference" expected
          (sorted_ids r.Planner.answers);
        if r.Planner.degraded then begin
          Alcotest.(check bool) "degradation carries the index error" true
            (r.Planner.index_error <> None);
          Alcotest.(check int) "degradation counted" 1 degraded
        end
      | Error e ->
        Alcotest.(check bool) "typed error has a kind" true
          (String.length (Error.kind e) > 0);
        Alcotest.(check int) "failure counted" 1 failures);
      Alcotest.(check int) "query counted" 1 queries;
      (* Reproducibility: a fresh injector with the same seed gives the
         same outcome — same answers, or an error of the same kind. *)
      let outcome', _, _, _ = run () in
      (match (outcome, outcome') with
      | Ok a, Ok b ->
        Alcotest.(check (list int)) "same seed, same answers"
          (sorted_ids a.Planner.answers) (sorted_ids b.Planner.answers);
        Alcotest.(check bool) "same seed, same path" a.Planner.degraded
          b.Planner.degraded
      | Error a, Error b ->
        Alcotest.(check string) "same seed, same error kind" (Error.kind a)
          (Error.kind b)
      | Ok _, Error e | Error e, Ok _ ->
        Alcotest.failf "same seed diverged (error %s)" (Error.to_string e));
      true)

(* --- Degradation property --------------------------------------------------- *)

let prop_degradation =
  QCheck.Test.make
    ~name:
      "index failure degrades to the scan: exact answers, visible counters"
    ~count:150 arb_scenario
    (fun (dseed, qseed, eps, _, _, _, fseed, kind) ->
      let dataset = datasets.(dseed) in
      let spec = safe_spec Simq_geometry.Coords.Polar (spec_of_index qseed) in
      let query = query_for dataset spec qseed in
      let index = Kindex.build ~max_fill:8 dataset in
      (* Three ways in: a zero node budget, a fault plan failing the
         first visit of every attempt, and neither limit nor faults
         (nothing may degrade). *)
      let budget, expected_kind =
        match kind mod 3 with
        | 0 ->
          (* A zero node budget fails any traversal that descends past
             the root; a query region that prunes at (or misses) the
             root completes legitimately, so the expected outcome is
             learned below by mirroring the planner's index attempt. *)
          ( (fun () -> Budget.create ~max_node_accesses:0 ()),
            "budget_exceeded:node_accesses" )
        | 1 ->
          (* Transient node faults outlasting every retry: each of the
             three attempts' first visit faults. *)
          ( (fun () ->
              Budget.create
                ~faults:
                  (Injector.create
                     ~node_accesses:
                       (Injector.transient ~schedule:[ 1; 2; 3 ] ())
                     ~seed:fseed ())
                ()),
            "io_failed" )
        | _ -> ((fun () -> Budget.unlimited), "none")
      in
      let index_survives =
        match
          Kindex.range_checked ~spec ~budget:(budget ()) index ~query
            ~epsilon:eps
        with
        | Ok _ -> true
        | Error _ -> false
      in
      if expected_kind = "none" then
        Alcotest.(check bool) "no limit, no faults: the index survives" true
          index_survives;
      let outcome, `Queries queries, `Degraded degraded, `Failures failures =
        planner_counts (fun () ->
            Planner.range_resilient ~pool:Pool.sequential ~spec
              ~budget:(budget ()) index ~query ~epsilon:eps)
      in
      (match outcome with
      | Error e -> Alcotest.failf "fallback failed: %s" (Error.to_string e)
      | Ok r when index_survives ->
        (* The budget never bit: the index path must be kept, with the
           exact reference answer and no degradation recorded. *)
        Alcotest.(check bool) "not degraded" false r.Planner.degraded;
        Alcotest.(check bool) "index answered" true
          (r.Planner.executed = Planner.Use_index);
        Alcotest.(check (list int)) "index answers = reference"
          (reference_ids dataset spec query eps)
          (sorted_ids r.Planner.answers)
      | Ok r ->
        Alcotest.(check bool) "degraded" true r.Planner.degraded;
        Alcotest.(check bool) "scan answered" true
          (r.Planner.executed = Planner.Use_scan);
        (match r.Planner.index_error with
        | None -> Alcotest.fail "missing index error"
        | Some e ->
          Alcotest.(check string) "index error kind" expected_kind
            (Error.kind e));
        Alcotest.(check (list int)) "degraded answers = reference"
          (reference_ids dataset spec query eps)
          (sorted_ids r.Planner.answers));
      let expected_degraded = if index_survives then 0 else 1 in
      Alcotest.(check int) "degradation counted" expected_degraded degraded;
      Alcotest.(check int) "no failure" 0 failures;
      Alcotest.(check int) "query counted" 1 queries;
      true)

(* --- Parallel equivalence under faults and budgets --------------------------- *)

let check_result_equal msg (expected : Seqscan.result) (actual : Seqscan.result)
    =
  Alcotest.(check (list (pair int (float 0.))))
    (msg ^ ": answers")
    expected.Seqscan.answers
    actual.Seqscan.answers;
  Alcotest.(check int) (msg ^ ": full computations")
    expected.Seqscan.full_computations actual.Seqscan.full_computations;
  Alcotest.(check int) (msg ^ ": coefficients touched")
    expected.Seqscan.coefficients_touched actual.Seqscan.coefficients_touched

let prop_parallel_checked =
  QCheck.Test.make
    ~name:
      "checked scan across 1/2/4 domains: same outcome kind, bit-identical \
       answers"
    ~count:100 arb_scenario
    (fun (dseed, qseed, eps, _, page_p, sched, fseed, bkind) ->
      let dataset = datasets.(dseed) in
      let spec = safe_spec Simq_geometry.Coords.Polar (spec_of_index qseed) in
      let query = query_for dataset spec qseed in
      let budget faults =
        match bkind with
        | 0 | 1 -> Budget.create ~faults ()
        | 2 -> Budget.create ~max_comparisons:(qseed mod 50) ~faults ()
        | _ -> Budget.create ~max_page_reads:(qseed mod 6) ~faults ()
      in
      let outcomes =
        List.map
          (fun (domains, pool) ->
            (* A fresh fault plan per run, same seed: the page-fault
               stream is identical whatever the domain count, because
               page accounting runs on the submitting domain only. *)
            let faults =
              Injector.create
                ~page_reads:
                  (Injector.transient ~probability:page_p ~schedule:sched ())
                ~seed:fseed ()
            in
            ( domains,
              Seqscan.range_checked ~pool ~spec ~budget:(budget faults) dataset
                ~query ~epsilon:eps ))
          pools
      in
      (match outcomes with
      | (_, baseline) :: rest ->
        List.iter
          (fun (domains, outcome) ->
            match (baseline, outcome) with
            | Ok expected, Ok actual ->
              check_result_equal
                (Printf.sprintf "domains=%d vs sequential" domains)
                expected actual
            | Error a, Error b ->
              Alcotest.(check string)
                (Printf.sprintf "error kind, domains=%d" domains)
                (Error.kind a) (Error.kind b)
            | Ok _, Error e | Error e, Ok _ ->
              Alcotest.failf "domains=%d diverged from sequential (error %s)"
                domains (Error.to_string e))
          rest
      | [] -> assert false);
      (* An Ok outcome must also be the Lemma 1 answer. *)
      (match outcomes with
      | (_, Ok r) :: _ ->
        Alcotest.(check (list int)) "checked Ok = reference"
          (reference_ids dataset spec query eps)
          (sorted_ids r.Seqscan.answers)
      | _ -> ());
      true)

let prop_join_checked =
  QCheck.Test.make
    ~name:"checked join: unlimited ≡ unchecked, blown budget is typed"
    ~count:30 arb_scenario
    (fun (dseed, qseed, eps, _, _, _, _, _) ->
      let dataset = datasets.(dseed) in
      let spec = safe_spec Simq_geometry.Coords.Polar (spec_of_index qseed) in
      let index = Kindex.build ~max_fill:8 dataset in
      let epsilon = Float.min eps 4. in
      let unchecked = Join.scan_early_abandon ~pool:Pool.sequential ~spec index ~epsilon in
      List.iter
        (fun (domains, pool) ->
          (match Join.scan_checked ~pool ~spec index ~epsilon with
          | Error e ->
            Alcotest.failf "unlimited budget failed: %s" (Error.to_string e)
          | Ok (r : Join.result) ->
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "pairs, domains=%d" domains)
              unchecked.Join.pairs r.Join.pairs;
            Alcotest.(check int)
              (Printf.sprintf "computations, domains=%d" domains)
              unchecked.Join.distance_computations r.Join.distance_computations);
          match
            Join.scan_checked ~pool ~spec
              ~budget:(Budget.create ~max_comparisons:0 ())
              index ~epsilon
          with
          | Ok _ -> Alcotest.fail "zero comparison budget cannot succeed"
          | Error e ->
            Alcotest.(check string)
              (Printf.sprintf "blown join budget, domains=%d" domains)
              "budget_exceeded:comparisons" (Error.kind e))
        pools;
      true)

(* --- Checked ≡ unchecked, and end-to-end retry ------------------------------- *)

let test_unlimited_checked_is_unchecked () =
  let dataset = datasets.(0) in
  let spec = Spec.Moving_average 3 in
  let query = query_for dataset spec 17 in
  let epsilon = 5. in
  let plain =
    Seqscan.range_early_abandon ~pool:Pool.sequential ~spec dataset ~query
      ~epsilon
  in
  (match
     Seqscan.range_checked ~pool:Pool.sequential ~spec dataset ~query ~epsilon
   with
  | Error e -> Alcotest.failf "scan failed: %s" (Error.to_string e)
  | Ok checked -> check_result_equal "scan" plain checked);
  let index = Kindex.build ~max_fill:8 dataset in
  let plain = Kindex.range ~spec index ~query ~epsilon in
  match Kindex.range_checked ~spec index ~query ~epsilon with
  | Error e -> Alcotest.failf "index failed: %s" (Error.to_string e)
  | Ok (checked : Kindex.found) ->
    Alcotest.(check (list (pair int (float 0.))))
      "index answers"
      plain.Kindex.answers
      checked.Kindex.answers;
    Alcotest.(check int) "candidates" plain.Kindex.candidates
      checked.Kindex.candidates;
    Alcotest.(check int) "node accesses" plain.Kindex.node_accesses
      checked.Kindex.node_accesses

let test_scan_retry_end_to_end () =
  let dataset = datasets.(1) in
  let query = query_for dataset Spec.Identity 3 in
  let with_schedule schedule =
    let faults =
      Injector.create ~page_reads:(Injector.transient ~schedule ()) ~seed:2 ()
    in
    Seqscan.range_checked ~pool:Pool.sequential
      ~budget:(Budget.create ~faults ()) dataset ~query ~epsilon:3.
  in
  (* One scheduled fault on the first page: a single retry absorbs it. *)
  (match with_schedule [ 1 ] with
  | Ok r ->
    let plain =
      Seqscan.range_early_abandon ~pool:Pool.sequential dataset ~query
        ~epsilon:3.
    in
    check_result_equal "retried scan" plain r
  | Error e -> Alcotest.failf "retry should absorb it: %s" (Error.to_string e));
  (* A fault on the first page of every attempt outlasts the retries
     and surfaces as a typed I/O failure. *)
  match with_schedule [ 1; 2; 3 ] with
  | Ok _ -> Alcotest.fail "expected Io_failed"
  | Error (Error.Io_failed { site; attempts }) ->
    Alcotest.(check string) "site" "page_read" site;
    Alcotest.(check int) "every attempt" Retry.max_attempts attempts
  | Error e -> Alcotest.failf "unexpected error %s" (Error.to_string e)

let () =
  Alcotest.run "simq_fault"
    [
      ( "injector",
        [
          Alcotest.test_case "scheduled ordinals" `Quick test_injector_schedule;
          Alcotest.test_case "seed reproducibility" `Quick
            test_injector_seed_reproducible;
          Alcotest.test_case "validation" `Quick test_injector_validation;
        ] );
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
          Alcotest.test_case "limit latches" `Quick test_budget_limit_latches;
          Alcotest.test_case "accounting" `Quick test_budget_accounting;
          Alcotest.test_case "guards fault before charging" `Quick
            test_budget_guard_faults_first;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "error kinds" `Quick test_error_kinds;
        ] );
      ( "retry",
        [
          Alcotest.test_case "recovers" `Quick test_retry_recovers;
          Alcotest.test_case "exhausts" `Quick test_retry_exhausts;
          Alcotest.test_case "budgets not retried" `Quick
            test_retry_never_retries_budgets;
        ] );
      ( "queries",
        [
          Alcotest.test_case "unlimited checked = unchecked" `Quick
            test_unlimited_checked_is_unchecked;
          Alcotest.test_case "scan retry end to end" `Quick
            test_scan_retry_end_to_end;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_safety;
            prop_degradation;
            prop_parallel_checked;
            prop_join_checked;
          ] );
    ]
