(* The domain pool (lib/parallel) and the parallel ≡ sequential
   equivalence the execution layer promises: every parallel variant
   must return bit-identical answers and identical counters to the
   sequential path, under every Spec and both coordinate
   representations (the Lemma 1 invariant must not bend under
   parallelism). *)

module Pool = Simq_parallel.Pool
open Simq_tsindex
module Generator = Simq_series.Generator

(* Shared pools: spawning domains per test case would dominate the
   suite's runtime. Degree 1 must behave exactly like inline code. *)
let pools = [ (1, Pool.sequential); (2, Pool.create ~domains:2); (4, Pool.create ~domains:4) ]
let pool_of n = List.assoc n pools

(* --- Pool unit tests -------------------------------------------------------- *)

let test_map_array_matches_sequential () =
  let arr = Array.init 103 (fun i -> i) in
  let f i = (i * i) + 1 in
  let expected = Array.map f arr in
  List.iter
    (fun (d, pool) ->
      List.iter
        (fun chunk ->
          Alcotest.(check (array int))
            (Printf.sprintf "domains=%d chunk=%d" d chunk)
            expected
            (Pool.map_array ~pool ~chunk f arr))
        [ 1; 7; 64; 1000 ])
    pools

let test_empty_and_singleton () =
  List.iter
    (fun (d, pool) ->
      Alcotest.(check (array int))
        (Printf.sprintf "empty, domains=%d" d)
        [||]
        (Pool.map_array ~pool (fun x -> x + 1) [||]);
      Alcotest.(check (array int))
        (Printf.sprintf "singleton, domains=%d" d)
        [| 42 |]
        (Pool.map_array ~pool ~chunk:5 (fun x -> x + 41) [| 1 |]);
      Alcotest.(check (list int))
        (Printf.sprintf "map_chunks n=0, domains=%d" d)
        []
        (Pool.map_chunks ~pool ~chunk:4 ~n:0 (fun ~lo ~hi -> lo + hi)))
    pools

let test_map_chunks_covers_exactly_once () =
  List.iter
    (fun (d, pool) ->
      List.iter
        (fun (n, chunk) ->
          let seen = Array.make n 0 in
          let ranges =
            Pool.map_chunks ~pool ~chunk ~n (fun ~lo ~hi ->
                for i = lo to hi - 1 do
                  seen.(i) <- seen.(i) + 1
                done;
                (lo, hi))
          in
          let label = Printf.sprintf "domains=%d n=%d chunk=%d" d n chunk in
          Alcotest.(check (array int)) label (Array.make n 1) seen;
          Alcotest.(check (list (pair int int)))
            (label ^ ", ranges in chunk order")
            (List.init ((n + chunk - 1) / chunk) (fun c ->
                 (c * chunk, min n ((c + 1) * chunk))))
            ranges)
        [ (100, 9); (5, 100); (1, 1); (64, 64) ])
    pools

let test_exception_propagation () =
  let arr = Array.init 40 (fun i -> i) in
  let f i = if i >= 13 then failwith (string_of_int i) else i in
  List.iter
    (fun (d, pool) ->
      List.iter
        (fun chunk ->
          match Pool.map_array ~pool ~chunk f arr with
          | _ -> Alcotest.failf "domains=%d chunk=%d: expected failure" d chunk
          | exception Failure msg ->
            (* The lowest-index failure wins, as in a sequential run. *)
            Alcotest.(check string)
              (Printf.sprintf "domains=%d chunk=%d" d chunk)
              "13" msg)
        [ 1; 4; 100 ])
    pools

let test_pool_reuse_after_exception () =
  List.iter
    (fun (d, pool) ->
      (try
         ignore
           (Pool.map_array ~pool ~chunk:2
              (fun i -> if i = 7 then raise Exit else i)
              (Array.init 20 Fun.id))
       with Exit -> ());
      Alcotest.(check (array int))
        (Printf.sprintf "reusable after exception, domains=%d" d)
        (Array.init 20 (fun i -> 2 * i))
        (Pool.map_array ~pool ~chunk:3 (fun i -> 2 * i) (Array.init 20 Fun.id)))
    pools

let test_nested_map_array () =
  List.iter
    (fun (d, pool) ->
      let outer =
        Pool.map_array ~pool ~chunk:1
          (fun i ->
            Array.fold_left ( + ) 0
              (Pool.map_array ~pool ~chunk:2 (fun j -> (i * 10) + j)
                 (Array.init 9 Fun.id)))
          (Array.init 6 Fun.id)
      in
      let expected =
        Array.init 6 (fun i ->
            Array.fold_left ( + ) 0 (Array.init 9 (fun j -> (i * 10) + j)))
      in
      Alcotest.(check (array int))
        (Printf.sprintf "nested, domains=%d" d)
        expected outer)
    pools

let test_shutdown_degrades_to_sequential () =
  let pool = Pool.create ~domains:3 in
  Alcotest.(check int) "domains" 3 (Pool.domains pool);
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check (array int)) "still works after shutdown"
    (Array.init 30 (fun i -> i + 1))
    (Pool.map_array ~pool ~chunk:4 (fun i -> i + 1) (Array.init 30 Fun.id))

let test_create_validation () =
  Alcotest.check_raises "domains=0" (Invalid_argument "Pool.create: domains must be >= 1")
    (fun () -> ignore (Pool.create ~domains:0));
  Alcotest.check_raises "chunk=0" (Invalid_argument "Pool: chunk must be >= 1")
    (fun () -> ignore (Pool.map_array ~pool:Pool.sequential ~chunk:0 Fun.id [| 1 |]))

(* Must run before the override test: [set_default_domains] permanently
   shadows the environment, so this is the only window where
   [SIMQ_DOMAINS] is consulted. *)
let test_env_domains_garbage_falls_back () =
  let fallback = max 1 (Domain.recommended_domain_count ()) in
  let saved = Sys.getenv_opt "SIMQ_DOMAINS" in
  List.iter
    (fun garbage ->
      Unix.putenv "SIMQ_DOMAINS" garbage;
      (* Never raises: garbage warns on stderr and falls back. *)
      Alcotest.(check int)
        (Printf.sprintf "%S falls back" garbage)
        fallback (Pool.default_domains ()))
    [ "bogus"; "0"; "-3"; "2.5"; "" ];
  Unix.putenv "SIMQ_DOMAINS" " 2 ";
  Alcotest.(check int) "valid value honoured, whitespace trimmed" 2
    (Pool.default_domains ());
  (* Restore the caller's setting, so the rest of the suite runs at the
     domain count it chose. Unix has no unsetenv: an unset variable is
     restored as the count it resolves to. *)
  Unix.putenv "SIMQ_DOMAINS"
    (match saved with Some v -> v | None -> string_of_int fallback)

let test_default_domains_override () =
  let before = Pool.default_domains () in
  Pool.set_default_domains 3;
  Alcotest.(check int) "--jobs override wins" 3 (Pool.default_domains ());
  Alcotest.(check int) "default pool resized" 3 (Pool.domains (Pool.default ()));
  Pool.set_default_domains before

(* --- parallel ≡ sequential equivalence -------------------------------------- *)

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

(* Bit-identical: ids, distances (float equality, no tolerance), and
   every counter. *)
let check_result_equal msg (expected : Seqscan.result) (actual : Seqscan.result) =
  Alcotest.(check (list (pair int (float 0.))))
    (msg ^ ": answers")
    expected.Seqscan.answers
    actual.Seqscan.answers;
  Alcotest.(check int) (msg ^ ": full computations")
    expected.Seqscan.full_computations actual.Seqscan.full_computations;
  Alcotest.(check int) (msg ^ ": coefficients touched")
    expected.Seqscan.coefficients_touched actual.Seqscan.coefficients_touched

let arb_setup =
  QCheck.make
    ~print:(fun (seed, eps, qseed) ->
      Printf.sprintf "seed=%d eps=%g qseed=%d" seed eps qseed)
    QCheck.Gen.(
      let* seed = int_range 0 1000 in
      let* eps = float_range 0.1 15. in
      let* qseed = int_range 0 1000 in
      return (seed, eps, qseed))

let prop_scan_parallel_eq_sequential =
  QCheck.Test.make
    ~name:"parallel scan ≡ sequential scan (every spec, both abandon modes)"
    ~count:20 arb_setup (fun (seed, epsilon, qseed) ->
      let d = dataset_of ~seed ~count:60 ~n:32 in
      let spec = spec_of_index qseed in
      let query = query_for d spec qseed in
      List.iter
        (fun domains ->
          let pool = pool_of domains in
          let seq_full =
            Seqscan.range_full ~pool:Pool.sequential ~spec d ~query ~epsilon
          in
          let par_full = Seqscan.range_full ~pool ~spec d ~query ~epsilon in
          check_result_equal
            (Printf.sprintf "full, %s, domains=%d" (Spec.name spec) domains)
            seq_full par_full;
          let seq_early =
            Seqscan.range_early_abandon ~pool:Pool.sequential ~spec d ~query
              ~epsilon
          in
          let par_early =
            Seqscan.range_early_abandon ~pool ~spec d ~query ~epsilon
          in
          check_result_equal
            (Printf.sprintf "early, %s, domains=%d" (Spec.name spec) domains)
            seq_early par_early;
          (* Lemma 1 stays intact: the scan equals the time-domain
             brute-force reference. *)
          let reference = Seqscan.reference ~spec d ~query ~epsilon in
          Alcotest.(check (list int))
            (Printf.sprintf "reference ids, %s, domains=%d" (Spec.name spec)
               domains)
            (List.map fst reference)
            (List.map fst
               par_full.Seqscan.answers))
        [ 1; 2; 4 ];
      true)

(* The frequency-domain join scan as a plain double loop of the
   distance kernel over one pre-stretched [count × w] buffer of
   weighted halves: the pairs in (i, j) order, and the comparisons the
   scan makes — one per pair for method (a), and for method (b) one per
   pair whose coefficient-1 real parts lie within the one-sided band
   width of each other (any two keys, in either order: the band is a
   property of the pair, not of the sort). *)
let reference_join ~abandon d spec epsilon =
  let module Flat = Simq_dsp.Flat in
  let entries = Dataset.entries d in
  let count = Array.length entries and w = Dataset.width d in
  let stretch = Spec.stretch spec ~n:(Dataset.series_length d) in
  let spectra = Flat.create (count * w) in
  Array.iteri
    (fun i (e : Dataset.entry) ->
      Flat.stretch_into ~stretch (Dataset.spectrum d e.Dataset.id) spectra
        ~off:(i * w))
    entries;
  let threshold = epsilon *. epsilon in
  let limit = if abandon then threshold else infinity in
  let key i = if w < 2 then 0. else spectra.{2 * ((i * w) + 1)} in
  let width =
    if Float.is_finite threshold then (epsilon *. (1. +. 1e-9)) +. 1e-153
    else infinity
  in
  let acc = Flat.acc () and pairs = ref [] and band = ref 0 in
  for i = 0 to count - 1 do
    for j = i + 1 to count - 1 do
      acc.Flat.sum <- 0.;
      ignore
        (Flat.sq_dist ~stretch:None ~limit ~lo:0 ~hi:w spectra (i * w) spectra
           (j * w) acc);
      if acc.Flat.sum <= threshold then pairs := (i, j) :: !pairs;
      let lo = Float.min (key i) (key j) and hi = Float.max (key i) (key j) in
      if hi <= lo +. width then incr band
    done
  done;
  (List.rev !pairs, if abandon then !band else count * (count - 1) / 2)

let prop_join_parallel_eq_sequential =
  QCheck.Test.make ~name:"parallel join scan ≡ sequential (every spec)"
    ~count:12 arb_setup (fun (seed, epsilon, qseed) ->
      let d = dataset_of ~seed ~count:40 ~n:32 in
      let index = Kindex.build ~max_fill:8 d in
      let spec = spec_of_index qseed in
      List.iter
        (fun domains ->
          let pool = pool_of domains in
          List.iter
            (fun (label, abandon, join) ->
              let seq : Join.result = join ~pool:Pool.sequential in
              let par : Join.result = join ~pool in
              (match spec with
              | Spec.Warp _ -> ()
              | _ ->
                let pairs, computations = reference_join ~abandon d spec epsilon in
                Alcotest.(check (list (pair int int)))
                  (Printf.sprintf "%s pairs = kernel loop, %s" label
                     (Spec.name spec))
                  pairs seq.Join.pairs;
                Alcotest.(check int)
                  (Printf.sprintf "%s computations = kernel loop, %s" label
                     (Spec.name spec))
                  computations seq.Join.distance_computations);
              Alcotest.(check (list (pair int int)))
                (Printf.sprintf "%s pairs, %s, domains=%d" label
                   (Spec.name spec) domains)
                seq.Join.pairs par.Join.pairs;
              Alcotest.(check int)
                (Printf.sprintf "%s computations, %s, domains=%d" label
                   (Spec.name spec) domains)
                seq.Join.distance_computations par.Join.distance_computations)
            [
              ( "full", false,
                fun ~pool -> Join.scan_full ~pool ~spec index ~epsilon );
              ( "early", true,
                fun ~pool -> Join.scan_early_abandon ~pool ~spec index ~epsilon
              );
            ])
        [ 1; 2; 4 ];
      true)

(* Method (b)'s band join against the exhaustive double loop, where
   keys tie and pairs lie at distance 0: a relation with exact
   duplicates (identical spectra) and shifted, scaled copies (normal
   forms equal up to rounding), at ε = 0 and above, for every spec the
   band applies to. *)
let prop_band_join_eq_exhaustive =
  QCheck.Test.make ~name:"band join pairs ≡ exhaustive pairs (every non-Warp spec)"
    ~count:12
    QCheck.(
      make
        ~print:(fun (seed, eps) -> Printf.sprintf "seed=%d eps=%g" seed eps)
        Gen.(
          pair (int_range 0 1000)
            (frequency [ (1, return 0.); (3, float_range 0.05 6.) ])))
    (fun (seed, epsilon) ->
      let base = Generator.random_walks ~seed ~count:30 ~n:32 in
      let copies =
        Array.init 12 (fun i ->
            let s = base.(i * 7 mod 30) in
            if i mod 2 = 0 then Array.copy s
            else Array.map (fun v -> (3. *. v) +. 10.) s)
      in
      let d =
        Dataset.of_series ~pool:Pool.sequential ~name:"dups"
          (Array.append base copies)
      in
      let index = Kindex.build ~max_fill:8 d in
      List.iter
        (fun spec ->
          let pairs, _ = reference_join ~abandon:true d spec epsilon in
          if epsilon = 0. then
            Alcotest.(check bool)
              (Printf.sprintf "duplicates pair at 0, %s" (Spec.name spec))
              true
              (List.length pairs >= 6);
          List.iter
            (fun domains ->
              Alcotest.(check (list (pair int int)))
                (Printf.sprintf "band = exhaustive, %s, domains=%d"
                   (Spec.name spec) domains)
                pairs
                (Join.scan_early_abandon ~pool:(pool_of domains) ~spec index
                   ~epsilon)
                  .Join.pairs)
            [ 1; 2 ])
        [ Spec.Identity; Spec.Moving_average 3; Spec.Moving_average 8;
          Spec.Reverse; Spec.Weighted_ma (Simq_dsp.Window.ascending 5) ];
      true)

(* QL queries name relation members, so the batch relation holds the
   random walks followed by [nq] perturbed copies of them: query [i] is
   member [count + i], under its own name. *)
let relation_with_queries ~seed ~count ~n ~nq ~qseed =
  let walks = Generator.random_walks ~seed ~count ~n in
  let perturbed i =
    let state = Random.State.make [| qseed + i |] in
    Array.map
      (fun v -> v +. Random.State.float state 2. -. 1.)
      walks.((qseed + i) mod count)
  in
  Dataset.of_series ~pool:Pool.sequential ~name:"test"
    (Array.append walks (Array.init nq perturbed))

let spec_text = function
  | Spec.Identity -> "id"
  | Spec.Moving_average m -> Printf.sprintf "mavg(%d)" m
  | Spec.Reverse -> "rev"
  | Spec.Warp m -> Printf.sprintf "warp(%d)" m
  | Spec.Weighted_ma w ->
    Printf.sprintf "wma(%d)" (Simq_dsp.Window.width w)

(* The (id, distance) rows of an engine's RANGE answer. *)
let engine_rows what = function
  | Ok (o : Simq_serve.Engine.outcome) -> (
    let module Json = Simq_obs.Json in
    match o.Simq_serve.Engine.results with
    | Json.Arr items ->
      List.map
        (fun item ->
          match (Json.member "id" item, Json.member "distance" item) with
          | Some (Json.Num id), Some (Json.Num d) -> (int_of_float id, d)
          | _ -> Alcotest.failf "%s: answer row without id/distance" what)
        items
    | _ -> Alcotest.failf "%s: answers are not an array" what)
  | Error e -> Alcotest.failf "%s failed: %s" what (Simq_cli.message e)

(* Engine.batch, element [i] against query [i] run alone, on the
   default pool resized to 1, 2 and 4 domains: index-planned engines
   over both representations, and an engine whose plan is the scan (a
   zero node budget under admission sends every RANGE to the scan
   before execution). The rendered per-query profile trees (timings
   stripped) must not depend on the domain count. *)
let prop_batch_eq_one_by_one =
  QCheck.Test.make
    ~name:"range_batch ≡ one-by-one (kindex + seqscan, both representations)"
    ~count:10 arb_setup (fun (seed, epsilon, qseed) ->
      let module Engine = Simq_serve.Engine in
      let module Profile = Simq_obs.Profile in
      let count = 50 and nq = 7 in
      let d = relation_with_queries ~seed ~count ~n:32 ~nq ~qseed in
      let epsilons = Array.init nq (fun i -> epsilon +. (0.3 *. float_of_int i)) in
      let check_batch label engine spec ~direct =
        let texts =
          Array.mapi
            (fun i epsilon ->
              Printf.sprintf "RANGE FROM r USING %s QUERY s%d EPS %.17g"
                (spec_text spec) (count + i) epsilon)
            epsilons
        in
        let query i =
          match
            Engine.resolve_query_series d spec
              ~name:(Printf.sprintf "s%d" (count + i)) ~noise:0.
          with
          | Ok q -> q
          | Error e -> Alcotest.failf "query %d: %s" i (Simq_cli.message e)
        in
        let one_by_one =
          Array.mapi (fun i _ -> direct ~query:(query i) ~epsilon:epsilons.(i)) texts
        in
        Array.iteri
          (fun i text ->
            Alcotest.(check (list (pair int (float 0.))))
              (Printf.sprintf "%s alone q%d" label i)
              one_by_one.(i)
              (engine_rows text (Engine.exec engine text)))
          texts;
        let saved = Pool.default_domains () in
        let trees = ref None in
        Fun.protect
          ~finally:(fun () -> Pool.set_default_domains saved)
          (fun () ->
            List.iter
              (fun domains ->
                Pool.set_default_domains domains;
                let profiles = Array.init nq (fun _ -> Profile.create ()) in
                let batch = Engine.batch ~profiles engine texts in
                Array.iteri
                  (fun i (_, r) ->
                    let what =
                      Printf.sprintf "%s answers q%d domains=%d" label i domains
                    in
                    Alcotest.(check (list (pair int (float 0.))))
                      what one_by_one.(i) (engine_rows what r))
                  batch;
                let rendered =
                  Array.map (fun p -> Profile.render ~timings:false p) profiles
                in
                match !trees with
                | None -> trees := Some rendered
                | Some reference ->
                  Alcotest.(check (array string))
                    (Printf.sprintf "%s trees domains=%d" label domains)
                    reference rendered)
              [ 1; 2; 4 ])
      in
      let requested = spec_of_index qseed in
      List.iter
        (fun representation ->
          (* Complex stretches are only safe in S_pol (Theorem 3). *)
          let spec =
            match (representation, requested) with
            | Simq_geometry.Coords.Rectangular,
              (Spec.Moving_average _ | Spec.Warp _) ->
              Spec.Reverse
            | _ -> requested
          in
          let config = { Feature.k = 2; representation } in
          let index = Kindex.build ~config ~max_fill:8 d in
          check_batch "kindex" (Engine.create index) spec
            ~direct:(fun ~query ~epsilon ->
              (Kindex.range ~spec index ~query ~epsilon).Kindex.answers))
        [ Simq_geometry.Coords.Polar; Simq_geometry.Coords.Rectangular ];
      (* The sequential-scan half, against its own one-by-one loop. *)
      let index = Kindex.build ~max_fill:8 d in
      let scan =
        Engine.create
          ~budget:(Simq_fault.Budget.create ~max_node_accesses:0 ())
          ~admission:
            (Simq_admission.create
               ~registry:(Simq_obs.Metrics.create_registry ()) ())
          index
      in
      check_batch "scan" scan requested ~direct:(fun ~query ~epsilon ->
          (Seqscan.range_early_abandon ~pool:Pool.sequential ~spec:requested d
               ~query ~epsilon)
              .Seqscan.answers);
      true)

let test_parallel_build_eq_sequential () =
  let batch = Generator.random_walks ~seed:11 ~count:80 ~n:64 in
  let seq = Dataset.of_series ~pool:Pool.sequential ~name:"seq" batch in
  List.iter
    (fun (d, pool) ->
      let par = Dataset.of_series ~pool ~name:"par" batch in
      Alcotest.(check int) "cardinality" (Dataset.cardinality seq)
        (Dataset.cardinality par);
      Array.iter2
        (fun (a : Dataset.entry) (b : Dataset.entry) ->
          Alcotest.(check int) "id" a.Dataset.id b.Dataset.id;
          Alcotest.(check bool)
            (Printf.sprintf "normal form bit-identical, domains=%d" d)
            true
            (Dataset.normal seq a.Dataset.id = Dataset.normal par b.Dataset.id);
          Alcotest.(check bool)
            (Printf.sprintf "spectrum bit-identical, domains=%d" d)
            true
            (Dataset.spectrum seq a.Dataset.id
            = Dataset.spectrum par b.Dataset.id);
          Alcotest.(check (float 0.)) "mean" a.Dataset.mean b.Dataset.mean;
          Alcotest.(check (float 0.)) "std" a.Dataset.std b.Dataset.std)
        (Dataset.entries seq) (Dataset.entries par))
    pools

let test_scan_io_accounting_matches () =
  (* The parallel scan must advance the relation's page statistics
     exactly as the sequential scan does (same touch order). *)
  let batch = Generator.random_walks ~seed:5 ~count:60 ~n:64 in
  let stats_after pool =
    let dataset = Dataset.of_series ~pool:Pool.sequential ~name:"io" batch in
    let query = (Dataset.entries dataset).(0).Dataset.series in
    Simq_storage.Io_stats.reset
      (Simq_storage.Relation.stats (Dataset.relation dataset));
    ignore (Seqscan.range_early_abandon ~pool dataset ~query ~epsilon:2.);
    let stats = Simq_storage.Relation.stats (Dataset.relation dataset) in
    ( Simq_storage.Io_stats.page_reads stats,
      Simq_storage.Io_stats.cache_hits stats )
  in
  let expected = stats_after Pool.sequential in
  List.iter
    (fun (d, pool) ->
      let reads, hits = stats_after pool in
      Alcotest.(check (pair int int))
        (Printf.sprintf "page stats, domains=%d" d)
        expected (reads, hits))
    pools

(* Lemma 1 with the observability layer switched on: instrumentation
   must not perturb the answers or the query counters at any domain
   count, on the scan and on the k-index, and the merged metric totals
   of the scan family must themselves be invariant in the domain
   count. *)
let test_scan_with_metrics_enabled () =
  let module Metrics = Simq_obs.Metrics in
  let d = dataset_of ~seed:17 ~count:80 ~n:32 in
  let spec = Spec.Moving_average 5 in
  let query = query_for d spec 17 in
  let epsilon = 1.5 in
  let index = Kindex.build ~max_fill:8 d in
  let kindex_run on =
    let r =
      Metrics.with_enabled on (fun () -> Kindex.range ~spec index ~query ~epsilon)
    in
    ( r.Kindex.answers,
      (r.Kindex.candidates, r.Kindex.node_accesses) )
  in
  let kindex_off = kindex_run false and kindex_on = kindex_run true in
  Alcotest.(check (list (pair int (float 0.))))
    "kindex answers, metrics on = off" (fst kindex_off) (fst kindex_on);
  Alcotest.(check (pair int int))
    "kindex candidates and node accesses, metrics on = off" (snd kindex_off)
    (snd kindex_on);
  let reference =
    Metrics.with_enabled false (fun () ->
        Seqscan.range_early_abandon ~pool:Pool.sequential ~spec d ~query
          ~epsilon)
  in
  let families =
    [ "simq_scan_candidates_total"; "simq_scan_survivors_total";
      "simq_scan_early_abandon_total" ]
  in
  let ref_totals = ref None in
  List.iter
    (fun (domains, pool) ->
      let result =
        Metrics.with_enabled true (fun () ->
            Metrics.reset ();
            Seqscan.range_early_abandon ~pool ~spec d ~query ~epsilon)
      in
      check_result_equal
        (Printf.sprintf "metrics on, domains=%d" domains)
        reference result;
      let totals =
        List.map (fun f -> Metrics.counter_total (Metrics.counter f)) families
      in
      match !ref_totals with
      | None -> ref_totals := Some totals
      | Some expected ->
        Alcotest.(check (list int))
          (Printf.sprintf "merged totals, domains=%d" domains)
          expected totals)
    pools

(* The chunking rule is a pure function of the input size and the
   domain count: a 4,000-entry scan on 2 domains is cut into 8 chunks
   per domain on every run, whatever the runs before it did. *)
let test_scan_chunking_deterministic () =
  let module Metrics = Simq_obs.Metrics in
  let pool = pool_of 2 in
  let d = dataset_of ~seed:5 ~count:4000 ~n:32 in
  let query = query_for d Spec.Identity 5 in
  let tasks = Metrics.counter "simq_pool_tasks_total" in
  let run () =
    Metrics.with_enabled true (fun () ->
        Metrics.reset ();
        ignore (Seqscan.range_early_abandon ~pool d ~query ~epsilon:4.);
        Metrics.counter_total tasks)
  in
  Alcotest.(check int) "chunk size" 250 (Pool.chunk_size pool 4000);
  Alcotest.(check int) "first run" 16 (run ());
  Alcotest.(check int) "second run" 16 (run ());
  Alcotest.(check int) "at least 64 per chunk" 64 (Pool.chunk_size pool 100);
  Alcotest.(check int) "one domain" 500 (Pool.chunk_size Pool.sequential 4000)

let () =
  Alcotest.run "simq_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map_array = Array.map" `Quick
            test_map_array_matches_sequential;
          Alcotest.test_case "empty and singleton" `Quick
            test_empty_and_singleton;
          Alcotest.test_case "map_chunks covers once" `Quick
            test_map_chunks_covers_exactly_once;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "reuse after exception" `Quick
            test_pool_reuse_after_exception;
          Alcotest.test_case "nested map_array" `Quick test_nested_map_array;
          Alcotest.test_case "shutdown degrades" `Quick
            test_shutdown_degrades_to_sequential;
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "garbage SIMQ_DOMAINS falls back" `Quick
            test_env_domains_garbage_falls_back;
          Alcotest.test_case "default pool override" `Quick
            test_default_domains_override;
        ] );
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_scan_parallel_eq_sequential;
            prop_join_parallel_eq_sequential;
            prop_batch_eq_one_by_one;
          ]
        @ [
            Alcotest.test_case "parallel dataset build" `Quick
              test_parallel_build_eq_sequential;
            Alcotest.test_case "scan I/O accounting" `Quick
              test_scan_io_accounting_matches;
            Alcotest.test_case "Lemma 1 with metrics enabled" `Quick
              test_scan_with_metrics_enabled;
            Alcotest.test_case "scan chunking is deterministic" `Quick
              test_scan_chunking_deterministic;
          ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_band_join_eq_exhaustive ]
      );
    ]
