(* The sharded scatter-gather layer (Simq_shard): a shard is built from
   its parent's prepared entries (shared series and normal arrays, rows
   equal to a fresh preparation, catalogue box the min/max of its
   feature points); sharded execution is
   invisible — range and NN answers bit-identical to the unsharded
   traversal under every Spec, shard count and domain count, with
   per-query counters and merged metric totals invariant in the domain
   count; catalogue pruning never drops a qualifying shard and a pruned
   shard executes nothing; a fault-tripped shard degrades to its own
   scan without losing the answer; per-shard admission decides
   identically at every domain count, one rejecting shard rejects the
   whole query with nothing executed, and an admitted run is
   bit-identical to an admission-off run. *)

module Pool = Simq_parallel.Pool
module Shard = Simq_shard
module Metrics = Simq_obs.Metrics
module Injector = Simq_fault.Injector
module Budget = Simq_fault.Budget
module Error = Simq_fault.Error
module Admission = Simq_admission
module Profile = Simq_obs.Profile
open Simq_tsindex
module Generator = Simq_series.Generator

let pools =
  [ (1, Pool.sequential); (2, Pool.create ~domains:2); (4, Pool.create ~domains:4) ]

let shard_counts = [ 1; 2; 7 ]

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

let spec_of_index i =
  match i mod 5 with
  | 0 -> Spec.Identity
  | 1 -> Spec.Moving_average 3
  | 2 -> Spec.Moving_average 8
  | 3 -> Spec.Reverse
  | _ -> Spec.Warp 2

let pairs answers =
  List.map (fun ((e : Dataset.entry), d) -> (e.Dataset.id, d)) answers

let ids answers =
  List.map (fun ((e : Dataset.entry), _) -> e.Dataset.id) answers

(* NN answers in canonical (distance, entry id) order, whatever order
   the compared traversal returned them in. *)
let canon answers =
  List.sort compare
    (List.map (fun ((e : Dataset.entry), d) -> (d, e.Dataset.id)) answers)

let fresh_policy () = Admission.create ~registry:(Metrics.create_registry ()) ()

(* Clustered sinusoid blocks, contiguous in id order (the partitioner's
   layout), so per-shard catalogue boxes separate and pruning has
   something to refuse. *)
let clustered_batch ~seed ~count ~n ~clusters =
  let state = Random.State.make [| seed |] in
  Array.init count (fun i ->
      let c = i * clusters / count in
      let freq = float_of_int ((c mod 3) + 1) in
      let use_cos = c / 3 mod 2 = 1 in
      let sign = if c / 6 mod 2 = 1 then -1. else 1. in
      Array.init n (fun t ->
          let a = 2. *. Float.pi *. freq *. float_of_int t /. float_of_int n in
          (sign *. 3. *. (if use_cos then cos a else sin a))
          +. Random.State.float state 0.2 -. 0.1))

let clustered_dataset ~clusters ~count ~n =
  Dataset.of_series ~pool:Pool.sequential ~name:"clustered"
    (clustered_batch ~seed:99 ~count ~n ~clusters)

(* --- sharded ≡ unsharded (QCheck, under Spec variation) --------------------- *)

let arb_setup =
  QCheck.make
    ~print:(fun (seed, eps, qseed) ->
      Printf.sprintf "seed=%d eps=%g qseed=%d" seed eps qseed)
    QCheck.Gen.(
      let* seed = int_range 0 1000 in
      let* eps = float_range 0.1 15. in
      let* qseed = int_range 0 1000 in
      return (seed, eps, qseed))

let shard_metric_families =
  [
    "simq_shard_queries_total"; "simq_shard_fanout_total";
    "simq_shard_pruned_total"; "simq_shard_degraded_total";
    "simq_kindex_candidates_total"; "simq_buffer_pool_hits_total";
    "simq_buffer_pool_misses_total";
  ]

let prop_sharded_eq_unsharded =
  QCheck.Test.make
    ~name:"sharded ≡ unsharded under Spec x K x domains; totals invariant"
    ~count:6 arb_setup (fun (seed, epsilon, qseed) ->
      let d = dataset_of ~seed ~count:60 ~n:32 in
      let spec = spec_of_index qseed in
      let query = query_for d spec qseed in
      let index = Kindex.build d in
      let expected = pairs (Kindex.range ~spec index ~query ~epsilon).Kindex.answers in
      let expected_nn = canon (Kindex.nearest ~spec index ~query ~k:5) in
      List.iter
        (fun shards ->
          let sh = Shard.create ~shards d in
          let counters = ref None and totals = ref None in
          List.iter
            (fun (domains, pool) ->
              let label fmt =
                Printf.ksprintf
                  (fun s -> Printf.sprintf "%s K=%d domains=%d" s shards domains)
                  fmt
              in
              let r = ref None in
              let run_totals =
                Metrics.with_enabled true (fun () ->
                    Metrics.reset ();
                    r := Some (Shard.range ~pool ~spec sh ~query ~epsilon);
                    List.map
                      (fun f -> Metrics.counter_total (Metrics.counter f))
                      shard_metric_families)
              in
              let r = Option.get !r in
              Alcotest.(check (list (pair int (float 0.))))
                (label "range answers") expected (pairs r.Shard.answers);
              let c =
                ( r.Shard.candidates, r.Shard.node_accesses,
                  r.Shard.report.Shard.fanout, r.Shard.report.Shard.pruned )
              in
              (match !counters with
              | None -> counters := Some c
              | Some expected ->
                Alcotest.(check (pair (pair int int) (pair int int)))
                  (label "counters domain-invariant")
                  ((let a, b, x, y = expected in ((a, b), (x, y))))
                  (let a, b, x, y = c in ((a, b), (x, y))));
              (match !totals with
              | None -> totals := Some run_totals
              | Some expected ->
                Alcotest.(check (list int))
                  (label "merged totals domain-invariant")
                  expected run_totals);
              let nn = Shard.nearest ~pool ~spec sh ~query ~k:5 in
              Alcotest.(check (list (pair (float 0.) int)))
                (label "nn answers") expected_nn (canon nn.Shard.neighbours);
              Alcotest.(check (list (pair (float 0.) int)))
                (label "nn canonical order")
                (canon nn.Shard.neighbours)
                (List.map
                   (fun ((e : Dataset.entry), dist) -> (dist, e.Dataset.id))
                   nn.Shard.neighbours);
              match
                Shard.range_checked ~pool ~spec sh ~query ~epsilon
              with
              | Ok rc ->
                Alcotest.(check (list (pair int (float 0.))))
                  (label "checked range ≡ plain") expected
                  (pairs rc.Shard.answers)
              | Error e ->
                Alcotest.failf "%s: unexpected error %s"
                  (label "checked range") (Error.kind e))
            pools)
        shard_counts;
      true)

(* --- shards built from the parent's prepared entries ---------------------- *)

(* Each case shards a parent whose own k-index has already laid its
   buffer out in leaf order, as the engine does, so a parent's slot is
   not its id. The configurations give one-leaf and multi-level shard
   trees, and 50 entries over 3 shards give blocks of 17, 17 and 16. *)
let construction_setups () =
  List.map
    (fun (config, max_fill) ->
      let d = dataset_of ~seed:41 ~count:50 ~n:32 in
      ignore (Kindex.build ~config ~max_fill d);
      (config, max_fill, d, Shard.create ~config ~max_fill ~shards:3 d))
    [
      (Feature.default, 32);
      ({ Feature.k = 3; representation = Simq_geometry.Coords.Rectangular }, 4);
    ]

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_shard_entries_share_parent_arrays () =
  List.iter
    (fun (_, _, d, sh) ->
      for i = 0 to Shard.shards sh - 1 do
        let lo, hi = Shard.bounds sh i in
        let sd = Shard.shard_dataset sh i in
        Alcotest.(check int) "block width" (hi - lo) (Dataset.cardinality sd);
        for j = 0 to hi - lo - 1 do
          let p = Dataset.get d (lo + j) and e = Dataset.get sd j in
          Alcotest.(check int) "local id" j e.Dataset.id;
          Alcotest.(check bool) "series is the parent's row" true
            (Array.for_all2 same_bits e.Dataset.series p.Dataset.series);
          Alcotest.(check string) "name is the parent's" p.Dataset.name
            e.Dataset.name;
          Alcotest.(check bool) "mean and std" true
            (same_bits e.Dataset.mean p.Dataset.mean
            && same_bits e.Dataset.std p.Dataset.std)
        done
      done)
    (construction_setups ())

(* A shard's rows are those a fresh preparation of its block gives: the
   same entries, spectra bit for bit, the head rows a copy of each
   spectrum's first coefficients (a zero head distance to the entry's
   own spectrum), and, once both are indexed alike, the same slots. *)
let test_shard_rows_equal_fresh_preparation () =
  List.iter
    (fun (config, max_fill, d, sh) ->
      for i = 0 to Shard.shards sh - 1 do
        let sd = Shard.shard_dataset sh i in
        let lo, _ = Shard.bounds sh i in
        let width = Dataset.cardinality sd in
        let fresh =
          Dataset.of_series ~pool:Pool.sequential ~name:"fresh"
            (Array.map (fun e -> e.Dataset.series) (Dataset.entries sd))
        in
        ignore (Kindex.build ~config ~max_fill fresh);
        let acc = Simq_dsp.Flat.acc () in
        for j = 0 to width - 1 do
          let e = Dataset.get sd j and f = Dataset.get fresh j in
          Alcotest.(check string) "name" (Dataset.name d (lo + j)) e.Dataset.name;
          Alcotest.(check bool) "normal form" true
            (Array.for_all2 same_bits (Dataset.normal fresh j)
               (Dataset.normal sd j));
          Alcotest.(check bool) "mean and std" true
            (same_bits f.Dataset.mean e.Dataset.mean
            && same_bits f.Dataset.std e.Dataset.std);
          Alcotest.(check bool) "spectrum bits" true
            (let a = Dataset.spectrum fresh j and b = Dataset.spectrum sd j in
             Bigarray.Array1.dim a = Bigarray.Array1.dim b
             && List.for_all
                  (fun i -> same_bits a.{i} b.{i})
                  (List.init (Bigarray.Array1.dim a) Fun.id));
          Alcotest.(check int) "slot" (Dataset.slot fresh j) (Dataset.slot sd j);
          ignore
            (Dataset.head_sq_dist sd ~stretch:None (Dataset.slot sd j)
               (Dataset.spectrum sd j) acc);
          Alcotest.(check bool) "head row is the spectrum's prefix" true
            (same_bits 0. acc.Simq_dsp.Flat.sum)
        done
      done)
    (construction_setups ())

(* The catalogue box is the shard tree's root MBR: the same min/max, bit
   for bit, as the box of the shard's feature points. *)
let test_catalogue_box_is_feature_box () =
  let module Rect = Simq_geometry.Rect in
  List.iter
    (fun (config, _, _, sh) ->
      for i = 0 to Shard.shards sh - 1 do
        let sd = Shard.shard_dataset sh i in
        let points =
          Array.to_list
            (Array.init (Dataset.cardinality sd) (Feature.point config sd))
        in
        let expected = Rect.of_points points in
        let root =
          Simq_rtree.Rstar.root (Kindex.tree (Shard.shard_index sh i))
        in
        let box = root.Simq_rtree.Node.mbr in
        Alcotest.(check bool) "lo bits" true
          (Array.for_all2 same_bits expected.Rect.lo box.Rect.lo);
        Alcotest.(check bool) "hi bits" true
          (Array.for_all2 same_bits expected.Rect.hi box.Rect.hi)
      done)
    (construction_setups ())

(* --- catalogue pruning ------------------------------------------------------ *)

(* Lemma 1 conservatism at the shard catalogue: a shard whose own
   traversal finds answers must survive the probe. *)
let test_pruning_never_drops_a_qualifying_shard () =
  let clusters = 8 in
  let d = clustered_dataset ~clusters ~count:64 ~n:32 in
  let sh = Shard.create ~shards:clusters d in
  let state = Random.State.make [| 7 |] in
  List.iter
    (fun spec ->
      List.iter
        (fun epsilon ->
          for c = 0 to clusters - 1 do
            let base = (Dataset.get d (c * 8)).Dataset.series in
            let query =
              let p = Simq_workload.Queries.perturb state base ~amount:0.05 in
              match spec with
              | Spec.Warp m -> Simq_series.Warp.expand m p
              | _ -> p
            in
            let survivors = Shard.survivors ~spec sh ~query ~epsilon in
            for i = 0 to Shard.shards sh - 1 do
              let own =
                Kindex.range ~spec (Shard.shard_index sh i) ~query ~epsilon
              in
              if own.Kindex.answers <> [] then
                Alcotest.(check bool)
                  (Printf.sprintf
                     "cluster %d eps=%g shard %d holds answers, survives" c
                     epsilon i)
                  true survivors.(i)
            done
          done)
        [ 0.5; 2.0; 8.0 ])
    [ Spec.Identity; Spec.Moving_average 3 ]

let test_pruned_shards_execute_nothing () =
  let clusters = 8 in
  let d = clustered_dataset ~clusters ~count:64 ~n:32 in
  let sh = Shard.create ~shards:clusters d in
  let query =
    Simq_workload.Queries.perturb
      (Random.State.make [| 8 |])
      (Dataset.get d 0).Dataset.series ~amount:0.05
  in
  let epsilon = 0.5 in
  let survivors = Shard.survivors sh ~query ~epsilon in
  Alcotest.(check bool) "something is pruned" true
    (Array.exists not survivors);
  Metrics.with_enabled true (fun () ->
      Metrics.reset ();
      let r = Shard.range ~pool:Pool.sequential sh ~query ~epsilon in
      Alcotest.(check int) "report counts the pruned shards"
        (Array.length (Array.of_seq
           (Seq.filter not (Array.to_seq survivors))))
        r.Shard.report.Shard.pruned;
      Array.iteri
        (fun i alive ->
          let executed =
            Metrics.counter_total
              (Metrics.counter
                 ~labels:[ ("shard", string_of_int i) ]
                 "simq_shard_executed_total")
          in
          Alcotest.(check int)
            (Printf.sprintf "shard %d executed counter" i)
            (if alive then 1 else 0)
            executed)
        survivors);
  (* The skewed service workload (spec_mix with the shard-skew knob)
     through a sharded engine: the catalogue refuses shards there too,
     as the shard counts of the engine's request records show. *)
  let engine = Simq_serve.Engine.create ~shards:clusters (Kindex.build d) in
  let pruned =
    List.fold_left
      (fun acc spec ->
        let note = Simq_serve.Engine.note () in
        ignore (Simq_serve.Engine.exec ~note engine spec);
        match note.Simq_serve.Engine.note_shards with
        | Some counts -> acc + counts.Simq_obs.Qlog.pruned
        | None -> acc)
      0
      (Simq_workload.Queries.spec_mix ~skew:0.8 ~seed:44 ~cardinality:64
         ~count:40 ())
  in
  Alcotest.(check bool) "the skewed workload prunes shards" true (pruned > 0)

(* Every surviving shard is its own pool task: a 4-shard query on a
   2-domain pool hands the pool 4 chunks, not one inline chunk. *)
let test_shards_fan_out () =
  let d = dataset_of ~seed:12 ~count:60 ~n:32 in
  let sh = Shard.create ~shards:4 d in
  let query = query_for d Spec.Identity 12 in
  let pool = List.assoc 2 pools in
  let tasks = Metrics.counter "simq_pool_tasks_total" in
  let tasks_of label run =
    Metrics.with_enabled true (fun () ->
        Metrics.reset ();
        (match run () with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" label (Error.kind e));
        Alcotest.(check int) (label ^ " tasks") 4 (Metrics.counter_total tasks))
  in
  tasks_of "range" (fun () ->
      Result.map ignore (Shard.range_checked ~pool sh ~query ~epsilon:12.0));
  tasks_of "nearest" (fun () ->
      Result.map ignore (Shard.nearest_checked ~pool sh ~query ~k:5))

(* --- degradation ------------------------------------------------------------ *)

(* A fresh per-query fault plan failing the first [max_attempts] node
   visits: on the sequential pool shard 0 runs first and makes all of
   them, so its index path exhausts its retries and the checked scatter
   answers that shard through its own scan — that shard only, since
   every later visit is fault-free. The answers are still exact: scan
   and traversal compute every distance with the one kernel, so ids
   and distances are the same, bit for bit. *)
let first_shard_faults () =
  let attempts = Simq_fault.Retry.max_attempts in
  Budget.create
    ~faults:
      (Injector.create
         ~node_accesses:
           (Injector.transient ~schedule:(List.init attempts succ) ())
         ~seed:4242 ())
    ()

let test_degraded_shard_still_exact () =
  let d = dataset_of ~seed:31 ~count:60 ~n:32 in
  let index = Kindex.build d in
  let query = query_for d Spec.Identity 31 in
  let epsilon = 12.0 in
  let sh = Shard.create ~shards:4 d in
  (* The degraded shard's scan applies the side constraints itself: the
     constrained case keeps 7 of the 60 answers. At this ε the
     catalogue prunes no shard in either case. *)
  List.iter
    (fun (label, mean_window, std_band) ->
      let expected = Kindex.range ?mean_window ?std_band index ~query ~epsilon in
      match
        Shard.range_checked ~pool:Pool.sequential ~budget:(first_shard_faults ())
          ?mean_window ?std_band sh ~query ~epsilon
      with
      | Ok r ->
        Alcotest.(check (list int))
          (label ^ " ids")
          (ids expected.Kindex.answers)
          (ids r.Shard.answers);
        List.iter2
          (fun (_, a) (_, b) ->
            Alcotest.(check (float 0.)) (label ^ " distance") a b)
          (pairs expected.Kindex.answers)
          (pairs r.Shard.answers);
        Alcotest.(check int) (label ^ ": one degraded shard") 1
          r.Shard.report.Shard.degraded;
        Alcotest.(check int) (label ^ ": full fanout") 4
          r.Shard.report.Shard.fanout
      | Error e ->
        Alcotest.failf "degraded %s failed: %s" label (Error.kind e))
    [ ("range", None, None); ("constrained range", Some 5., Some 2.) ]

(* The NN traversal's degradation path is admission-driven (its
   best-first loop charges the budget itself rather than consulting the
   tree injector): a zero node-access budget sends every shard to the
   exact linear selection, and the merge must still be the unsharded
   answer. *)
let test_degraded_shard_nearest_still_exact () =
  let d = dataset_of ~seed:32 ~count:60 ~n:32 in
  let index = Kindex.build d in
  let query = query_for d Spec.Identity 32 in
  let expected = canon (Kindex.nearest index ~query ~k:5) in
  let sh = Shard.create ~shards:4 d in
  List.iter
    (fun (domains, pool) ->
      match
        Shard.nearest_checked ~pool
          ~budget:(Budget.create ~max_node_accesses:0 ())
          ~admission:(fresh_policy ()) sh ~query ~k:5
      with
      | Ok r ->
        Alcotest.(check (list int))
          (Printf.sprintf "nn ids domains=%d" domains)
          (List.map snd expected)
          (List.map snd (canon r.Shard.neighbours));
        List.iter2
          (fun (a, _) (b, _) ->
            Alcotest.(check (float 0.))
              (Printf.sprintf "nn distance domains=%d" domains)
              a b)
          expected
          (canon r.Shard.neighbours);
        Alcotest.(check int)
          (Printf.sprintf "every shard degraded domains=%d" domains)
          (Shard.shards sh) r.Shard.nearest_report.Shard.degraded;
        Alcotest.(check int)
          (Printf.sprintf "full fanout domains=%d" domains)
          (Shard.shards sh) r.Shard.nearest_report.Shard.fanout
      | Error e ->
        Alcotest.failf "domains=%d: degraded NN failed: %s" domains
          (Error.kind e))
    pools

(* --- NN gather ties --------------------------------------------------------- *)

(* Exact distance collisions at the k boundary, across shard
   boundaries: three bit-identical series land in different shards, so
   the 2-NN answer must pick the same two of them everywhere. The
   best-first traversal (heap tie order), the sharded canonical
   (distance, id) gather and the degraded linear selection all have to
   agree on the smallest tied ids. *)
let test_nn_gather_ties_canonical () =
  let n = 16 in
  let base = Array.init n (fun t -> 3. *. sin (float_of_int t /. 2.)) in
  let filler i =
    Array.init n (fun t ->
        cos (float_of_int (t * (i + 2)) /. 3.) +. (2. *. float_of_int i) +. 8.)
  in
  let series =
    Array.init 8 (fun i ->
        match i with 1 | 5 | 6 -> Array.copy base | _ -> filler i)
  in
  let d = Dataset.of_series ~pool:Pool.sequential ~name:"ties" series in
  let index = Kindex.build d in
  let query =
    Array.mapi
      (fun t v -> v +. if t mod 2 = 0 then 0.01 else -0.01)
      base
  in
  let k = 2 in
  let scan =
    match
      Kindex.nearest_scan index
        (Kindex.nearest_query index Spec.Identity query)
        ~budget:Simq_fault.Budget.unlimited ~profile:None ~k
    with
    | Ok answers -> answers
    | Error e -> Alcotest.failf "nearest_scan failed: %s" (Error.kind e)
  in
  Alcotest.(check (list int))
    "scan breaks the tie on the smallest ids" [ 1; 5 ] (ids scan);
  Alcotest.(check (list (pair (float 0.) int)))
    "tree traversal agrees with the scan tie set" (canon scan)
    (canon (Kindex.nearest index ~query ~k));
  List.iter
    (fun shards ->
      let sh = Shard.create ~shards d in
      List.iter
        (fun (domains, pool) ->
          let label s = Printf.sprintf "%s K=%d domains=%d" s shards domains in
          let nn = Shard.nearest ~pool sh ~query ~k in
          Alcotest.(check (list (pair (float 0.) int)))
            (label "sharded gather agrees on the tie set")
            (canon scan) (canon nn.Shard.neighbours);
          match
            Shard.nearest_checked ~pool
              ~budget:(Budget.create ~max_node_accesses:0 ())
              ~admission:(fresh_policy ()) sh ~query ~k
          with
          | Ok r ->
            Alcotest.(check (list int))
              (label "degraded scan fallback agrees on the tied ids")
              (ids scan)
              (List.map snd (canon r.Shard.neighbours))
          | Error e ->
            Alcotest.failf "%s: degraded NN failed: %s"
              (label "degraded") (Error.kind e))
        pools)
    [ 2; 4 ]

(* --- per-shard admission ---------------------------------------------------- *)

let starved_budget () = Budget.create ~max_page_reads:0 ~max_node_accesses:0 ()
let degrade_budget () = Budget.create ~max_node_accesses:0 ()

let roomy_budget () =
  Budget.create ~max_page_reads:100_000 ~max_comparisons:100_000
    ~max_node_accesses:100_000 ()

let test_one_rejecting_shard_rejects_everything () =
  let d = dataset_of ~seed:33 ~count:60 ~n:32 in
  let sh = Shard.create ~shards:4 d in
  let query = query_for d Spec.Identity 33 in
  Metrics.with_enabled true (fun () ->
      Metrics.reset ();
      (match
         Shard.range_checked ~pool:Pool.sequential
           ~budget:(starved_budget ())
           ~admission:(fresh_policy ()) sh ~query ~epsilon:8.0
       with
      | Error (Error.Rejected _) -> ()
      | Error e -> Alcotest.failf "expected Rejected, got %s" (Error.kind e)
      | Ok _ -> Alcotest.fail "a starved budget must be rejected");
      List.iter
        (fun family ->
          Alcotest.(check int)
            (family ^ " untouched")
            0
            (Metrics.counter_total (Metrics.counter family)))
        [
          "simq_shard_queries_total"; "simq_shard_fanout_total";
          "simq_buffer_pool_hits_total"; "simq_buffer_pool_misses_total";
          "simq_kindex_candidates_total"; "simq_rtree_node_visits_total";
        ];
      Array.iteri
        (fun i _ ->
          Alcotest.(check int)
            (Printf.sprintf "shard %d never executed" i)
            0
            (Metrics.counter_total
               (Metrics.counter
                  ~labels:[ ("shard", string_of_int i) ]
                  "simq_shard_executed_total")))
        (Array.make (Shard.shards sh) ()))

let test_admission_decisions_identical_at_every_domain_count () =
  let d = dataset_of ~seed:34 ~count:60 ~n:32 in
  let sh = Shard.create ~shards:4 d in
  let query = query_for d Spec.Identity 34 in
  let budgets =
    [ starved_budget (); degrade_budget (); roomy_budget () ]
  in
  let outcomes_at (_, pool) =
    let policy = fresh_policy () in
    List.concat_map
      (fun budget ->
        match
          Shard.range_checked ~pool ~budget ~admission:policy sh ~query
            ~epsilon:8.0
        with
        | Ok r ->
          [
            ( Array.to_list r.Shard.report.Shard.admission
              |> List.filter_map (Option.map Admission.decision_name),
              Ok (pairs r.Shard.answers, r.Shard.report.Shard.degraded) );
          ]
        | Error e -> [ ([], Result.Error (Error.kind e)) ])
      budgets
  in
  let reference = outcomes_at (List.hd pools) in
  List.iter
    (fun (domains, _ as p) ->
      Alcotest.(check bool)
        (Printf.sprintf "decisions and outcomes at %d domains" domains)
        true
        (outcomes_at p = reference))
    (List.tl pools)

let test_admitted_run_bit_identical_to_admission_off () =
  let d = dataset_of ~seed:35 ~count:60 ~n:32 in
  let sh = Shard.create ~shards:4 d in
  let query = query_for d Spec.Identity 35 in
  let plain = Shard.range ~pool:Pool.sequential sh ~query ~epsilon:8.0 in
  match
    Shard.range_checked ~pool:Pool.sequential ~budget:(roomy_budget ())
      ~admission:(fresh_policy ()) sh ~query ~epsilon:8.0
  with
  | Ok r ->
    Alcotest.(check (list (pair int (float 0.))))
      "answers bit-identical" (pairs plain.Shard.answers)
      (pairs r.Shard.answers);
    Alcotest.(check int) "candidates" plain.Shard.candidates r.Shard.candidates;
    Alcotest.(check int) "node accesses" plain.Shard.node_accesses
      r.Shard.node_accesses;
    Alcotest.(check int) "nothing degraded" 0 r.Shard.report.Shard.degraded
  | Error e -> Alcotest.failf "roomy budget must complete: %s" (Error.kind e)

(* The seed shard of a sharded NEAREST: the one whose root box has the
   smallest node bound, the lowest ordinal on ties. *)
let seed_shard sh ~query =
  let probe =
    let idx = Shard.shard_index sh 0 in
    Kindex.nearest_bound idx (Kindex.nearest_query idx Spec.Identity query)
  in
  let bound i =
    probe (Simq_rtree.Rstar.root (Kindex.tree (Shard.shard_index sh i)))
      .Simq_rtree.Node.mbr
  in
  let best = ref 0 in
  for i = 1 to Shard.shards sh - 1 do
    if bound i < bound !best then best := i
  done;
  !best

(* A profiled sharded NEAREST shows each shard's real work: [shard.i]'s
   rows in, candidates and pages are the entries keyed, the refinements
   and the node expansions of a direct profiled traversal of shard i's
   own index — unseeded for the seed shard, seeded with the seed's
   k-th distance for the others — and the rendered tree (timings
   stripped) is the same at every domain count. *)
let test_nearest_profile_shows_shard_work () =
  let d = dataset_of ~seed:36 ~count:200 ~n:32 in
  let sh = Shard.create ~shards:4 d in
  let query = query_for d Spec.Identity 36 in
  let k = 5 in
  let node profile name =
    match Profile.find profile name with
    | Some node -> node
    | None -> Alcotest.failf "no %s node" name
  in
  let counts node =
    (Profile.rows_in node, Profile.candidates node, Profile.pages node)
  in
  let traverse ?within i =
    let profile = Profile.create () in
    match
      Kindex.nearest_checked ?within ~profile (Shard.shard_index sh i) ~query
        ~k
    with
    | Ok r -> (r.Kindex.neighbours, counts (node profile "kindex.nearest"))
    | Error e -> Alcotest.failf "shard %d: %s" i (Error.kind e)
  in
  let seed = seed_shard sh ~query in
  let seed_answers, seed_counts = traverse seed in
  Alcotest.(check int) "the seed finds k" k (List.length seed_answers);
  let within = snd (List.nth seed_answers (k - 1)) in
  let direct =
    List.init (Shard.shards sh) (fun i ->
        if i = seed then seed_counts else snd (traverse ~within i))
  in
  List.iteri
    (fun i (_, refinements, pages) ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d refines and expands" i)
        true
        (refinements > 0 && pages > 0))
    direct;
  let renders =
    List.map
      (fun (domains, pool) ->
        let profile = Profile.create () in
        ignore (Shard.nearest ~pool ~profile sh ~query ~k);
        List.iteri
          (fun i expected ->
            Alcotest.(check (triple int int int))
              (Printf.sprintf "%d domains: shard.%d = its direct traversal"
                 domains i)
              expected
              (counts (node profile (Printf.sprintf "shard.%d" i))))
          direct;
        Profile.render ~timings:false profile)
      pools
  in
  List.iter
    (Alcotest.(check string) "rendered tree identical at every domain count"
       (List.hd renders))
    (List.tl renders)

(* --- seeded sharded NEAREST (QCheck) ---------------------------------------- *)

(* Sharded NEAREST, whose shards after the seed run under the seed's
   k-th distance, returns [Kindex.nearest]'s answer bit for bit: k from
   1 to 24 (above a shard's size at 16 shards), every spec including
   the warp, at lengths 128, 100 (Bluestein) and 7 (one-sided), over
   random walks of which twenty are duplicated into another shard, so
   that ties fall at the k-th distance. At 1 and 2 domains the answers,
   the report and the rendered profile (timings stripped) agree; with
   the seed shard faulted into its own scan the answer is still
   exact. *)
let arb_seeded =
  QCheck.make
    ~print:(fun (seed, qseed, k, si, n) ->
      Printf.sprintf "seed=%d qseed=%d k=%d spec=%d n=%d" seed qseed k si n)
    QCheck.Gen.(
      let* seed = int_range 0 1000 in
      let* qseed = int_range 0 1000 in
      let* k = oneof [ return 1; int_range 1 24 ] in
      let* si = int_range 0 4 in
      let* n = oneofl [ 128; 100; 7 ] in
      return (seed, qseed, k, si, n))

let prop_seeded_nearest_exact =
  QCheck.Test.make ~name:"seeded sharded NEAREST ≡ Kindex.nearest" ~count:60
    arb_seeded (fun (seed, qseed, k, si, n) ->
      let base = Generator.random_walks ~seed ~count:40 ~n in
      let series =
        Array.init 60 (fun i -> Array.copy base.(if i < 40 then i else i - 40))
      in
      let d = Dataset.of_series ~pool:Pool.sequential ~name:"seeded" series in
      let spec =
        match si with
        | 0 -> Spec.Identity
        | 1 -> Spec.Reverse
        | 2 -> Spec.Moving_average 3
        | 3 -> Spec.Weighted_ma (Simq_dsp.Window.ascending 5)
        | _ -> Spec.Warp 2
      in
      let query = query_for d spec (qseed mod 20) in
      let expected = canon (Kindex.nearest ~spec (Kindex.build d) ~query ~k) in
      List.iter
        (fun shards ->
          let sh = Shard.create ~shards d in
          let runs =
            List.map
              (fun (domains, pool) ->
                let label what =
                  Printf.sprintf "%s K=%d domains=%d" what shards domains
                in
                let profile = Profile.create () in
                let r = Shard.nearest ~pool ~spec ~profile sh ~query ~k in
                Alcotest.(check (list (pair (float 0.) int)))
                  (label "answers") expected (canon r.Shard.neighbours);
                Alcotest.(check (list (pair (float 0.) int)))
                  (label "canonical order") expected
                  (List.map
                     (fun ((e : Dataset.entry), dist) -> (dist, e.Dataset.id))
                     r.Shard.neighbours);
                (match
                   Shard.nearest_checked ~pool ~spec
                     ~budget:(first_shard_faults ()) sh ~query ~k
                 with
                | Ok f ->
                  Alcotest.(check (list (pair (float 0.) int)))
                    (label "answers, seed degraded") expected
                    (canon f.Shard.neighbours);
                  Alcotest.(check int) (label "one degraded shard") 1
                    f.Shard.nearest_report.Shard.degraded
                | Error e ->
                  Alcotest.failf "%s: %s" (label "faulted") (Error.kind e));
                Profile.render ~timings:false profile)
              (List.filter (fun (domains, _) -> domains <= 2) pools)
          in
          Alcotest.(check string)
            (Printf.sprintf "K=%d: profile identical at 1 and 2 domains" shards)
            (List.hd runs) (List.nth runs 1))
        [ 4; 16 ];
      true)

(* The seeded traversal itself: [Kindex.nearest_checked ~within:w] is
   the unseeded answer cut at [w], ties at [w] kept — with [w] set to
   each answer's distance and the double below it, under the head key
   and refinement (id, mavg) and under the warp, whose data entries are
   keyed by their distance itself. Three copies of each of ten series
   make every distance a tie. *)
let test_seeded_traversal_cuts_at_within () =
  let base = Generator.random_walks ~seed:51 ~count:10 ~n:32 in
  let d =
    Dataset.of_series ~pool:Pool.sequential ~name:"copies"
      (Array.init 30 (fun i -> Array.copy base.(i mod 10)))
  in
  let index = Kindex.build ~max_fill:4 d in
  List.iter
    (fun spec ->
      let query = query_for d spec 3 in
      let k = 12 in
      let run ?within () =
        match Kindex.nearest_checked ~spec ?within index ~query ~k with
        | Ok r -> canon r.Kindex.neighbours
        | Error e -> Alcotest.failf "%s: %s" (Spec.name spec) (Error.kind e)
      in
      let full = run () in
      List.iter
        (fun (w, _) ->
          List.iter
            (fun w ->
              Alcotest.(check (list (pair (float 0.) int)))
                (Printf.sprintf "%s within=%h" (Spec.name spec) w)
                (List.filter (fun (dist, _) -> dist <= w) full)
                (run ~within:w ()))
            [ w; Float.pred w ])
        full)
    [ Spec.Identity; Spec.Moving_average 3; Spec.Warp 2 ]

let () =
  Alcotest.run "simq_shard"
    [
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_sharded_eq_unsharded ] );
      ( "shared rows",
        [
          Alcotest.test_case "entries share the parent's arrays" `Quick
            test_shard_entries_share_parent_arrays;
          Alcotest.test_case "rows equal a fresh preparation" `Quick
            test_shard_rows_equal_fresh_preparation;
          Alcotest.test_case "catalogue box is the feature box" `Quick
            test_catalogue_box_is_feature_box;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "never drops a qualifying shard" `Quick
            test_pruning_never_drops_a_qualifying_shard;
          Alcotest.test_case "pruned shards execute nothing" `Quick
            test_pruned_shards_execute_nothing;
          Alcotest.test_case "shards fan out one task each" `Quick
            test_shards_fan_out;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "degraded shard still exact (range)" `Quick
            test_degraded_shard_still_exact;
          Alcotest.test_case "degraded shard still exact (nearest)" `Quick
            test_degraded_shard_nearest_still_exact;
          Alcotest.test_case "nn gather ties are canonical" `Quick
            test_nn_gather_ties_canonical;
        ] );
      ( "profile",
        [
          Alcotest.test_case "nearest shows each shard's work" `Quick
            test_nearest_profile_shows_shard_work;
        ] );
      ( "seeded-nn",
        [
          Alcotest.test_case "seeded traversal cuts at within" `Quick
            test_seeded_traversal_cuts_at_within;
          QCheck_alcotest.to_alcotest prop_seeded_nearest_exact;
        ] );
      ( "admission",
        [
          Alcotest.test_case "one rejecting shard rejects everything" `Quick
            test_one_rejecting_shard_rejects_everything;
          Alcotest.test_case "decisions identical at every domain count"
            `Quick test_admission_decisions_identical_at_every_domain_count;
          Alcotest.test_case "admitted run bit-identical to admission-off"
            `Quick test_admitted_run_bit_identical_to_admission_off;
        ] );
    ]
