(* The multi-resolution sketch funnel (Simq_sketch): every level of the
   ladder lower-bounds the exact transformed distance (the per-level
   Lemma 1 that makes exact mode invisible), sketched execution is
   bit-identical to unsketched under every Spec, both coordinate
   representations, and through the sharded executor at every domain
   count with domain-invariant filter counters; approximate mode
   ([?approx a]) returns only true answers and keeps everything inside
   the (1 - a)·ε inner ball; anytime mode turns budget death inside
   verification into a sound partial answer; the funnel shows up as
   [sketch.<level>] operator nodes in a recorded profile. *)

module Pool = Simq_parallel.Pool
module Shard = Simq_shard
module Sketch = Simq_sketch
module Metrics = Simq_obs.Metrics
module Profile = Simq_obs.Profile
module Budget = Simq_fault.Budget
module Coords = Simq_geometry.Coords
open Simq_tsindex
module Generator = Simq_series.Generator

let dataset_of ~seed ~count ~n =
  Dataset.of_series ~pool:Pool.sequential ~name:"test"
    (Generator.random_walks ~seed ~count ~n)

let query_for dataset spec seed =
  let entries = Dataset.entries dataset in
  let base = entries.(seed mod Array.length entries) in
  let state = Random.State.make [| seed |] in
  let perturbed =
    Array.map
      (fun v -> v +. Random.State.float state 2. -. 1.)
      base.Dataset.series
  in
  match spec with
  | Spec.Warp m -> Simq_series.Warp.expand m perturbed
  | _ -> perturbed

let all_specs =
  [
    Spec.Identity;
    Spec.Moving_average 3;
    Spec.Moving_average 8;
    Spec.Reverse;
    Spec.Warp 2;
  ]

(* NN answers in canonical (distance, entry id) order. *)
let canon answers =
  List.sort compare
    (List.map (fun (id, d) -> (d, id)) answers)

(* --- every level lower-bounds the exact distance (QCheck) ------------------- *)

let arb_seeds =
  QCheck.make
    ~print:(fun (seed, qseed) -> Printf.sprintf "seed=%d qseed=%d" seed qseed)
    QCheck.Gen.(
      let* seed = int_range 0 1000 in
      let* qseed = int_range 0 1000 in
      return (seed, qseed))

let prop_levels_lower_bound =
  QCheck.Test.make
    ~name:"every funnel level and the NN bound lower-bound the exact distance"
    ~count:10 arb_seeds (fun (seed, qseed) ->
      let d = dataset_of ~seed ~count:50 ~n:32 in
      let index = Kindex.build d in
      let sketch = Sketch.create d in
      List.iter
        (fun spec ->
          let query = query_for d spec qseed in
          let q = Dataset.prepare_query ~normalise:true query in
          let prepared = Kindex.prepare index spec in
          let dist = Kindex.prepared_distance index prepared q in
          (match Sketch.funnel sketch ~spec ~query:q with
          | None -> (
            match spec with
            | Spec.Warp _ -> ()
            | _ -> Alcotest.failf "no funnel under %s" (Spec.name spec))
          | Some pf ->
            Array.iteri
              (fun level name ->
                Array.iter
                  (fun entry ->
                    let b = pf.Kindex.bound level entry.Dataset.id in
                    let x = dist entry.Dataset.id in
                    if b > x +. 1e-9 then
                      Alcotest.failf
                        "%s level %s: bound %.17g > distance %.17g (entry %d)"
                        (Spec.name spec) name b x entry.Dataset.id)
                  (Dataset.entries d))
              pf.Kindex.levels);
          match Sketch.nn_bound sketch ~spec ~query:q with
          | None -> ()
          | Some bound ->
            Array.iter
              (fun entry ->
                let b = bound entry.Dataset.id in
                let x = dist entry.Dataset.id in
                if b > x +. 1e-9 then
                  Alcotest.failf
                    "%s nn bound %.17g > distance %.17g (entry %d)"
                    (Spec.name spec) b x entry.Dataset.id)
              (Dataset.entries d))
        all_specs;
      true)

(* --- sketched ≡ unsketched under Spec x representation (QCheck) ------------- *)

let arb_setup =
  QCheck.make
    ~print:(fun (seed, eps, qseed) ->
      Printf.sprintf "seed=%d eps=%g qseed=%d" seed eps qseed)
    QCheck.Gen.(
      let* seed = int_range 0 1000 in
      let* eps = float_range 0.1 15. in
      let* qseed = int_range 0 1000 in
      return (seed, eps, qseed))

let prop_sketched_eq_unsketched =
  QCheck.Test.make
    ~name:"sketched ≡ unsketched under Spec x representation" ~count:6
    arb_setup (fun (seed, epsilon, qseed) ->
      let d = dataset_of ~seed ~count:60 ~n:32 in
      let sketch = Sketch.create d in
      List.iter
        (fun representation ->
          let config = { Feature.k = 2; representation } in
          let index = Kindex.build ~config d in
          List.iter
            (fun spec ->
              (* Complex stretches are only safe in S_pol (Theorem 3). *)
              let skip =
                representation = Coords.Rectangular
                && (match spec with
                   | Spec.Moving_average _ | Spec.Weighted_ma _
                   | Spec.Warp _ ->
                     true
                   | Spec.Identity | Spec.Reverse -> false)
              in
              if not skip then (
                let query = query_for d spec qseed in
                let funnel q = Sketch.funnel sketch ~spec ~query:q in
                let expected =
                  Kindex.range ~spec index ~query ~epsilon:epsilon
                in
                let sketched =
                  Kindex.range ~spec ~sketch:funnel index ~query
                    ~epsilon:epsilon
                in
                Alcotest.(check (list (pair int (float 0.))))
                  (Printf.sprintf "range %s" (Spec.name spec))
                  expected.Kindex.answers
                  sketched.Kindex.answers;
                let nn_expected = Kindex.nearest ~spec index ~query ~k:5 in
                let nn_sketched =
                  Kindex.nearest ~spec
                    ~sketch:(fun q -> Sketch.nn_bound sketch ~spec ~query:q)
                    index ~query ~k:5
                in
                Alcotest.(check (list (pair (float 0.) int)))
                  (Printf.sprintf "nearest %s" (Spec.name spec))
                  (canon nn_expected) (canon nn_sketched)))
            all_specs)
        [ Coords.Polar; Coords.Rectangular ];
      true)

(* --- sharded sketch parity and domain-invariant counters -------------------- *)

let pools =
  [
    (1, Pool.sequential); (2, Pool.create ~domains:2);
    (4, Pool.create ~domains:4);
  ]

let sketch_counter level =
  Metrics.counter ~labels:[ ("level", level) ] "simq_sketch_filtered_total"

let test_sharded_sketch_parity () =
  let d = dataset_of ~seed:21 ~count:60 ~n:32 in
  let index = Kindex.build d in
  List.iter
    (fun shards ->
      let sh =
        Shard.create ~sketch:Sketch.default ~shards d
      in
      List.iter
        (fun qseed ->
          let query = query_for d Spec.Identity qseed in
          let epsilon = 6. in
          let expected =
            (Kindex.range index ~query ~epsilon).Kindex.answers
          in
          let nn_expected = canon (Kindex.nearest index ~query ~k:5) in
          let totals = ref None in
          List.iter
            (fun (domains, pool) ->
              let label s =
                Printf.sprintf "%s K=%d domains=%d" s shards domains
              in
              let r = ref None in
              let run_totals =
                Metrics.with_enabled true (fun () ->
                    Metrics.reset ();
                    r := Some (Shard.range ~pool sh ~query ~epsilon);
                    [
                      Metrics.counter_total (sketch_counter "coarse");
                      Metrics.counter_total (sketch_counter "segment");
                    ])
              in
              let r = Option.get !r in
              Alcotest.(check (list (pair int (float 0.))))
                (label "sharded sketched range ≡ unsharded unsketched")
                expected r.Shard.answers;
              Alcotest.(check bool) (label "not partial") false r.Shard.partial;
              (match !totals with
              | None -> totals := Some run_totals
              | Some expected ->
                Alcotest.(check (list int))
                  (label "filter counters domain-invariant")
                  expected run_totals);
              let nn = Shard.nearest ~pool sh ~query ~k:5 in
              Alcotest.(check (list (pair (float 0.) int)))
                (label "sharded sketched nearest") nn_expected
                (canon nn.Shard.neighbours))
            pools)
        [ 3; 14; 25 ])
    [ 1; 2; 7 ]

(* The executor level: a 4-shard sketched engine answers NEAREST
   exactly as the plain engine does — same ids, order and distances in
   the rendered results — under every spec of the query language,
   checked and unchecked. *)
let test_engine_nearest_parity () =
  let module Engine = Simq_serve.Engine in
  let d = dataset_of ~seed:22 ~count:60 ~n:32 in
  let index = Kindex.build d in
  let budget () =
    Budget.create ~max_comparisons:1_000_000 ~max_node_accesses:1_000_000 ()
  in
  let results engine text =
    match Engine.exec engine text with
    | Ok o -> Simq_obs.Json.to_string o.Engine.results
    | Error e -> Alcotest.failf "%S failed: %s" text (Simq_cli.message e)
  in
  let plain = Engine.create index in
  List.iter
    (fun (what, engine) ->
      List.iter
        (fun using ->
          List.iter
            (fun (k, q) ->
              let text =
                Printf.sprintf "NEAREST %d FROM r%s QUERY s%d" k using q
              in
              Alcotest.(check string)
                (Printf.sprintf "%s: %s" what text)
                (results plain text) (results engine text))
            [ (1, 3); (5, 17); (60, 40) ])
        [ ""; " USING mavg(4)"; " USING rev"; " USING warp(2)" ])
    [
      ("4 shards, sketched", Engine.create ~shards:4 ~sketch:Sketch.default index);
      ( "4 shards, sketched, budgeted",
        Engine.create ~shards:4 ~sketch:Sketch.default ~budget:(budget ())
          index );
    ]

(* --- approximate mode ------------------------------------------------------- *)

let test_approx_guarantee () =
  let recall_a = 0.25 in
  let d = dataset_of ~seed:5 ~count:80 ~n:32 in
  let index = Kindex.build d in
  let sketch = Sketch.create d in
  let funnel q = Sketch.funnel sketch ~spec:Spec.Identity ~query:q in
  let kept = ref 0 and total = ref 0 in
  List.iter
    (fun qseed ->
      let query = query_for d Spec.Identity qseed in
      let epsilon = 7. in
      let exact =
        (Kindex.range index ~query ~epsilon).Kindex.answers
      in
      total := !total + List.length exact;
      (* a = 0: the cutoff is ε itself, so the run stays exact. *)
      let at_zero =
        Kindex.range ~sketch:funnel ~approx:0. index ~query ~epsilon
      in
      Alcotest.(check (list (pair int (float 0.))))
        "a=0 ≡ exact" exact
        at_zero.Kindex.answers;
      List.iter
        (fun a ->
          let r =
            Kindex.range ~sketch:funnel ~approx:a index ~query ~epsilon
          in
          let approx = r.Kindex.answers in
          if a = recall_a then kept := !kept + List.length approx;
          List.iter
            (fun pair ->
              if not (List.mem pair exact) then
                Alcotest.failf "a=%g returned a non-answer" a)
            approx;
          List.iter
            (fun ((_, dist) as pair) ->
              if dist <= (1. -. a) *. epsilon && not (List.mem pair approx)
              then
                Alcotest.failf
                  "a=%g dropped an inner-ball answer at distance %g" a dist)
            exact)
        [ 0.25; 0.3; 0.9 ])
    [ 2; 11; 30 ];
  (* Recall is a property of the data, not a guarantee (a = 0.9 keeps
     3 of these 89 answers); at a = 0.25 these queries keep at least
     1 - a of the exact answers. *)
  Alcotest.(check bool)
    (Printf.sprintf "a=%g: recall %d/%d >= 1 - a" recall_a !kept !total)
    true
    (float_of_int !kept >= (1. -. recall_a) *. float_of_int !total)

let test_approx_rejects_bad_a () =
  let d = dataset_of ~seed:5 ~count:20 ~n:32 in
  let index = Kindex.build d in
  let sketch = Sketch.create d in
  let funnel q = Sketch.funnel sketch ~spec:Spec.Identity ~query:q in
  let query = query_for d Spec.Identity 1 in
  List.iter
    (fun a ->
      Alcotest.check_raises
        (Printf.sprintf "approx %g rejected" a)
        (Invalid_argument "Kindex.range: approx must be in [0, 1)")
        (fun () ->
          ignore
            (Kindex.range ~sketch:funnel ~approx:a index ~query ~epsilon:1.)))
    [ 1.; 1.5; -0.1 ]

(* --- anytime mode ----------------------------------------------------------- *)

let test_anytime_partial_is_sound () =
  let d = dataset_of ~seed:9 ~count:80 ~n:32 in
  let index = Kindex.build d in
  let sketch = Sketch.create d in
  let funnel q = Sketch.funnel sketch ~spec:Spec.Identity ~query:q in
  let seen_partial = ref false in
  List.iter
    (fun qseed ->
      let query = query_for d Spec.Identity qseed in
      let epsilon = 7. in
      let exact =
        (Kindex.range index ~query ~epsilon).Kindex.answers
      in
      (* Without anytime the dying budget is a typed error... *)
      (match
         Kindex.range_checked
           ~budget:(Budget.create ~max_comparisons:1 ())
           ~sketch:funnel index ~query ~epsilon
       with
      | Ok r ->
        Alcotest.(check (list (pair int (float 0.))))
          "a non-anytime Ok is the exact answer" exact
          r.Kindex.answers
      | Error _ -> ());
      (* ...in approximate mode, which is anytime, it is a sound subset
         marked partial; approx 0 keeps the cutoff at epsilon. *)
      match
        Kindex.range_checked
          ~budget:(Budget.create ~max_comparisons:1 ())
          ~sketch:funnel ~approx:0. index ~query ~epsilon
      with
      | Error e -> Alcotest.failf "anytime failed: %s" (Simq_fault.Error.kind e)
      | Ok r ->
        if r.Kindex.partial then seen_partial := true;
        List.iter
          (fun pair ->
            if not (List.mem pair exact) then
              Alcotest.fail "partial answer not in the exact set")
          r.Kindex.answers)
    [ 2; 11; 30 ];
  Alcotest.(check bool) "a budget died inside verification" true !seen_partial

let test_anytime_with_headroom_is_exact () =
  let d = dataset_of ~seed:9 ~count:60 ~n:32 in
  let index = Kindex.build d in
  let sketch = Sketch.create d in
  let funnel q = Sketch.funnel sketch ~spec:Spec.Identity ~query:q in
  let query = query_for d Spec.Identity 4 in
  let epsilon = 7. in
  let exact = (Kindex.range index ~query ~epsilon).Kindex.answers in
  match
    Kindex.range_checked ~budget:Budget.unlimited ~sketch:funnel ~approx:0.
      index ~query ~epsilon
  with
  | Error e -> Alcotest.failf "unexpected error %s" (Simq_fault.Error.kind e)
  | Ok r ->
    Alcotest.(check bool) "not partial" false r.Kindex.partial;
    Alcotest.(check (list (pair int (float 0.)))) "exact" exact
      r.Kindex.answers

(* --- observability ---------------------------------------------------------- *)

let test_profile_shows_funnel () =
  let d = dataset_of ~seed:13 ~count:80 ~n:32 in
  let index = Kindex.build d in
  let sketch = Sketch.create d in
  let funnel q = Sketch.funnel sketch ~spec:Spec.Identity ~query:q in
  let query = query_for d Spec.Identity 3 in
  let p = Profile.create () in
  ignore
    (Kindex.range ~sketch:funnel ~profile:p index ~query ~epsilon:6.);
  List.iter
    (fun name ->
      match Profile.find p name with
      | None -> Alcotest.failf "no %s node in the profile" name
      | Some node ->
        Alcotest.(check bool)
          (name ^ " filtered at least nothing") true
          (Profile.rows_out node <= Profile.rows_in node))
    [ "sketch.coarse"; "sketch.segment" ]

let test_filter_counters_match_on_filtered () =
  let d = dataset_of ~seed:13 ~count:80 ~n:32 in
  let index = Kindex.build d in
  let sketch = Sketch.create d in
  let query = query_for d Spec.Identity 3 in
  let tallied = [| 0; 0 |] in
  let counted q =
    Option.map
      (fun (pf : Kindex.prefilter) ->
        {
          pf with
          Kindex.on_filtered =
            (fun level n ->
              tallied.(level) <- tallied.(level) + n;
              pf.Kindex.on_filtered level n);
        })
      (Sketch.funnel sketch ~spec:Spec.Identity ~query:q)
  in
  let totals =
    Metrics.with_enabled true (fun () ->
        Metrics.reset ();
        ignore (Kindex.range ~sketch:counted index ~query ~epsilon:6.);
        [
          Metrics.counter_total (sketch_counter "coarse");
          Metrics.counter_total (sketch_counter "segment");
        ])
  in
  Alcotest.(check (list int))
    "metric totals equal the on_filtered tallies"
    [ tallied.(0); tallied.(1) ]
    totals;
  Alcotest.(check bool) "the funnel filtered something" true (tallied.(0) > 0)

(* The segment level reads no stored normal form: each entry's segment
   means standardise its series point by point as they sum it, so the
   bound equals, bit for bit, the one computed from
   [Normal_form.decompose]'s normal forms by the same cut and slack. *)
let test_segment_means_of_normal_forms () =
  List.iter
    (fun n ->
      let batch =
        Array.mapi
          (fun i s -> if i mod 5 = 2 then Array.make n 3. else s)
          (Generator.random_walks ~seed:n ~count:40 ~n)
      in
      let d = Dataset.of_series ~pool:Pool.sequential ~name:"seg" batch in
      let q = Dataset.prepare_query (query_for d Spec.Identity 5) in
      let cuts = Int.min Sketch.default.Sketch.segments n in
      let lengths =
        Array.init cuts (fun j -> (n / cuts) + if j < n mod cuts then 1 else 0)
      in
      let means s =
        let pos = ref 0 in
        Array.map
          (fun len ->
            let acc = ref 0. in
            for i = !pos to !pos + len - 1 do
              acc := !acc +. s.(i)
            done;
            pos := !pos + len;
            !acc /. float_of_int len)
          lengths
      in
      let qmeans = means q.Dataset.qnormal in
      let reference (e : Dataset.entry) =
        let m = means (Simq_series.Normal_form.decompose e.Dataset.series)
                  .Simq_series.Normal_form.normalised in
        let acc = ref 0. in
        Array.iteri
          (fun j len ->
            let diff = m.(j) -. qmeans.(j) in
            acc := !acc +. (float_of_int len *. diff *. diff))
          lengths;
        sqrt !acc *. (1. -. 1e-9)
      in
      match Sketch.funnel (Sketch.create d) ~spec:Spec.Identity ~query:q with
      | None -> Alcotest.fail "the identity has a funnel"
      | Some f ->
        Alcotest.(check string) "level 1" "segment" f.Kindex.levels.(1);
        Array.iter
          (fun (e : Dataset.entry) ->
            Alcotest.(check int64)
              (Printf.sprintf "n=%d entry %d" n e.Dataset.id)
              (Int64.bits_of_float (reference e))
              (Int64.bits_of_float (f.Kindex.bound 1 e.Dataset.id)))
          (Dataset.entries d))
    [ 128; 100; 7 ]

let () =
  Alcotest.run "simq_sketch"
    [
      ( "lower bounds",
        [
          QCheck_alcotest.to_alcotest prop_levels_lower_bound;
          Alcotest.test_case "segment means of the normal forms" `Quick
            test_segment_means_of_normal_forms;
        ] );
      ( "exact parity",
        [
          QCheck_alcotest.to_alcotest prop_sketched_eq_unsketched;
          Alcotest.test_case "sharded parity + counters" `Quick
            test_sharded_sketch_parity;
          Alcotest.test_case "sharded sketched engine NEAREST = plain" `Quick
            test_engine_nearest_parity;
        ] );
      ( "approx",
        [
          Alcotest.test_case "superset-free and inner-ball complete" `Quick
            test_approx_guarantee;
          Alcotest.test_case "a outside [0,1) rejected" `Quick
            test_approx_rejects_bad_a;
        ] );
      ( "anytime",
        [
          Alcotest.test_case "partial answers are sound" `Quick
            test_anytime_partial_is_sound;
          Alcotest.test_case "headroom keeps it exact" `Quick
            test_anytime_with_headroom_is_exact;
        ] );
      ( "observability",
        [
          Alcotest.test_case "funnel nodes in the profile" `Quick
            test_profile_shows_funnel;
          Alcotest.test_case "filter counters match on_filtered" `Quick
            test_filter_counters_match_on_filtered;
        ] );
    ]
