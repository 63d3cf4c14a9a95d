(* The inter-query batch executor (Simq_parallel.Batch) and the engine's
   batch path behind it (Simq_serve.Engine.batch): batch answers must
   be bit-identical to per-query runs at every pool size (under Spec
   variation, on index- and scan-planned engines), merged metric totals
   must be invariant in the domain count, per-query profile trees
   (timings stripped) must be identical at every domain count, and the
   qlog size rotation must preserve the line stream. *)

module Pool = Simq_parallel.Pool
module Batch = Simq_parallel.Batch
module Profile = Simq_obs.Profile
module Metrics = Simq_obs.Metrics
module Qlog = Simq_obs.Qlog
open Simq_tsindex
module Generator = Simq_series.Generator

let pools =
  [ (1, Pool.sequential); (2, Pool.create ~domains:2); (4, Pool.create ~domains:4) ]

(* --- Batch.map unit tests --------------------------------------------------- *)

let test_map_order_and_values () =
  let queries = Array.init 23 (fun i -> i) in
  let f ~profile:_ q = (q * q) + 1 in
  let expected = Array.map (fun q -> (q * q) + 1) queries in
  List.iter
    (fun (d, pool) ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" d)
        expected
        (Batch.map ~pool f queries))
    pools

let test_map_empty () =
  List.iter
    (fun (d, pool) ->
      Alcotest.(check (array int))
        (Printf.sprintf "empty, domains=%d" d)
        [||]
        (Batch.map ~pool (fun ~profile:_ q -> q) [||]))
    pools

let test_map_timed_durations () =
  List.iter
    (fun (d, pool) ->
      let results =
        Batch.map_timed ~pool
          (fun ~profile:_ q -> q + 1)
          (Array.init 9 (fun i -> i))
      in
      Array.iteri
        (fun i (r : int Batch.timed) ->
          Alcotest.(check int)
            (Printf.sprintf "value %d, domains=%d" i d)
            (i + 1) r.Batch.value;
          Alcotest.(check bool)
            (Printf.sprintf "duration %d >= 0, domains=%d" i d)
            true
            (r.Batch.duration_s >= 0.))
        results)
    pools

let test_profiles_length_validation () =
  Alcotest.check_raises "wrong profiles length"
    (Invalid_argument "Batch: profiles array must match the query count")
    (fun () ->
      ignore
        (Batch.map ~pool:Pool.sequential
           ~profiles:(Array.init 2 (fun _ -> Profile.create ()))
           (fun ~profile:_ q -> q)
           [| 1; 2; 3 |]))

let test_profiles_are_threaded () =
  List.iter
    (fun (d, pool) ->
      let n = 5 in
      let profiles = Array.init n (fun _ -> Profile.create ()) in
      ignore
        (Batch.map ~pool ~profiles
           (fun ~profile q ->
             let node = Profile.enter profile "batch.test" in
             Profile.add_rows_out node q;
             Profile.leave profile node;
             q)
           (Array.init n (fun i -> i)));
      Array.iteri
        (fun i p ->
          match Profile.find p "batch.test" with
          | None ->
            Alcotest.failf "profile %d has no batch.test node, domains=%d" i d
          | Some node ->
            Alcotest.(check int)
              (Printf.sprintf "profile %d rows_out, domains=%d" i d)
              i (Profile.rows_out node))
        profiles)
    pools

let test_exception_propagates_lowest_index () =
  let queries = Array.init 20 (fun i -> i) in
  let f ~profile:_ q = if q >= 7 then failwith (string_of_int q) else q in
  List.iter
    (fun (d, pool) ->
      match Batch.map ~pool f queries with
      | _ -> Alcotest.failf "domains=%d: expected failure" d
      | exception Failure msg ->
        Alcotest.(check string) (Printf.sprintf "domains=%d" d) "7" msg)
    pools

(* --- Engine.batch ≡ one-by-one (QCheck, under Spec variation) --------------- *)

module Engine = Simq_serve.Engine
module Json = Simq_obs.Json

let spec_of_index i =
  match i mod 5 with
  | 0 -> Spec.Identity
  | 1 -> Spec.Moving_average 3
  | 2 -> Spec.Moving_average 8
  | 3 -> Spec.Reverse
  | _ -> Spec.Warp 2

let arb_setup =
  QCheck.make
    ~print:(fun (seed, eps, qseed) ->
      Printf.sprintf "seed=%d eps=%g qseed=%d" seed eps qseed)
    QCheck.Gen.(
      let* seed = int_range 0 1000 in
      let* eps = float_range 0.1 15. in
      let* qseed = int_range 0 1000 in
      return (seed, eps, qseed))

let spec_text = function
  | Spec.Identity -> "id"
  | Spec.Moving_average m -> Printf.sprintf "mavg(%d)" m
  | Spec.Reverse -> "rev"
  | Spec.Warp m -> Printf.sprintf "warp(%d)" m
  | Spec.Weighted_ma w ->
    Printf.sprintf "wma(%d)" (Simq_dsp.Window.width w)

(* QL queries name relation members, so the relation holds [count]
   random walks followed by [nq] perturbed copies of them: query [i]
   is member [count + i], under its own name. *)
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

let range_texts ~count spec epsilons =
  Array.mapi
    (fun i epsilon ->
      Printf.sprintf "RANGE FROM r USING %s QUERY s%d EPS %.17g"
        (spec_text spec) (count + i) epsilon)
    epsilons

(* An engine whose plan is the scan: a node budget of zero leaves no
   room for the index path, so admission (against an isolated
   registry, so every run decides from the same snapshot) sends every
   RANGE to the sequential scan before execution. *)
let scan_engine index =
  Engine.create
    ~budget:(Simq_fault.Budget.create ~max_node_accesses:0 ())
    ~admission:(Simq_admission.create ~registry:(Metrics.create_registry ()) ())
    index

(* [Engine.batch] on the default pool resized to [domains], restored
   afterwards. *)
let batch_at domains ?profiles engine texts =
  let saved = Pool.default_domains () in
  Pool.set_default_domains domains;
  Fun.protect
    ~finally:(fun () -> Pool.set_default_domains saved)
    (fun () -> Engine.batch ?profiles engine texts)

let results_of what = function
  | Ok (o : Engine.outcome) -> o.Engine.results
  | Error e -> Alcotest.failf "%s failed: %s" what (Simq_cli.message e)

(* The (id, distance) rows of a RANGE answer. *)
let rows json =
  match json with
  | Json.Arr items ->
    List.map
      (fun item ->
        match (Json.member "id" item, Json.member "distance" item) with
        | Some (Json.Num id), Some (Json.Num d) -> (int_of_float id, d)
        | _ -> Alcotest.fail "answer row without id/distance")
      items
  | _ -> Alcotest.fail "answers are not an array"

(* Bit-identity of batch element [i] against query [i] run alone, on an
   index-planned and a scan-planned engine at 1, 2 and 4 domains,
   plus domain-count invariance of the rendered per-query profile
   trees (timings stripped); the one-by-one answers are themselves the
   k-index's and the early-abandon scan's. *)
let prop_profiled_batch_eq_sequential =
  QCheck.Test.make
    ~name:"profiled range_batch ≡ one-by-one; trees domain-count-invariant"
    ~count:8 arb_setup (fun (seed, epsilon, qseed) ->
      let count = 50 and nq = 6 in
      let d = relation_with_queries ~seed ~count ~n:32 ~nq ~qseed in
      let spec = spec_of_index qseed in
      let epsilons = Array.init nq (fun i -> epsilon +. (0.3 *. float_of_int i)) in
      let texts = range_texts ~count spec epsilons in
      let index = Kindex.build ~max_fill:8 d in
      let query i =
        match
          Engine.resolve_query_series d spec
            ~name:(Printf.sprintf "s%d" (count + i)) ~noise:0.
        with
        | Ok q -> q
        | Error e -> Alcotest.failf "query %d: %s" i (Simq_cli.message e)
      in
      let pairs answers =
        List.map (fun ((e : Dataset.entry), dist) -> (e.Dataset.id, dist)) answers
      in
      let direct_index i =
        Kindex.range ~spec index ~query:(query i) ~epsilon:epsilons.(i)
      in
      let direct_scan i =
        Seqscan.range_early_abandon ~pool:Pool.sequential ~spec d
          ~query:(query i) ~epsilon:epsilons.(i)
      in
      List.iter
        (fun (label, engine, path, direct) ->
          let alone =
            Array.map
              (fun text ->
                let profile = Profile.create () in
                let note = Engine.note () in
                let r = Engine.exec ~profile ~note engine text in
                (results_of text r, note.Engine.note_path,
                 Profile.render ~timings:false profile))
              texts
          in
          Array.iteri
            (fun i (results, note_path, _) ->
              Alcotest.(check (option string))
                (Printf.sprintf "%s path q%d" label i) (Some path) note_path;
              Alcotest.(check (list (pair int (float 0.))))
                (Printf.sprintf "%s alone = direct q%d" label i)
                (direct i) (rows results))
            alone;
          let trees = ref None in
          List.iter
            (fun domains ->
              let profiles = Array.init nq (fun _ -> Profile.create ()) in
              let batch = batch_at domains ~profiles engine texts in
              Array.iteri
                (fun i (note, r) ->
                  let results, note_path, tree = alone.(i) in
                  let what = Printf.sprintf "%s q%d domains=%d" label i domains in
                  Alcotest.(check bool) (what ^ ": answers") true
                    (results_of what r = results);
                  Alcotest.(check (option string)) (what ^ ": path")
                    note_path note.Engine.note_path;
                  Alcotest.(check string) (what ^ ": tree = alone") tree
                    (Profile.render ~timings:false profiles.(i)))
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
        [
          ( "kindex", Engine.create index, "index",
            fun i -> pairs (direct_index i).Kindex.answers );
          ( "scan", scan_engine index, "scan",
            fun i -> pairs (direct_scan i).Seqscan.answers );
        ];
      true)

(* --- merged metric totals are domain-count-invariant ------------------------ *)

let test_batch_metric_totals_invariant () =
  let count = 70 and nq = 8 in
  let d = relation_with_queries ~seed:23 ~count ~n:32 ~nq ~qseed:40 in
  let index = Kindex.build ~max_fill:8 d in
  let texts =
    range_texts ~count (Spec.Moving_average 4)
      (Array.init nq (fun i -> 1.0 +. (0.4 *. float_of_int i)))
  in
  let engine = Engine.create index and scan = scan_engine index in
  let families =
    [ "simq_batch_queries_total"; "simq_scan_candidates_total";
      "simq_scan_survivors_total"; "simq_scan_early_abandon_total";
      "simq_kindex_candidates_total"; "simq_rtree_node_accesses_total" ]
  in
  let ref_totals = ref None in
  List.iter
    (fun (domains, _) ->
      let totals =
        Metrics.with_enabled true (fun () ->
            Metrics.reset ();
            ignore (batch_at domains engine texts);
            ignore (batch_at domains scan texts);
            List.map
              (fun f -> Metrics.counter_total (Metrics.counter f))
              families)
      in
      Alcotest.(check int)
        (Printf.sprintf "batch queries counted, domains=%d" domains)
        (2 * nq)
        (List.hd totals);
      match !ref_totals with
      | None -> ref_totals := Some totals
      | Some expected ->
        Alcotest.(check (list int))
          (Printf.sprintf "merged totals, domains=%d" domains)
          expected totals)
    pools

(* --- qlog size rotation ------------------------------------------------------ *)

let with_qlog_dir f =
  let dir = Filename.temp_file "simq_qlog" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "rot.qlog" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ path; path ^ ".1" ];
      Unix.rmdir dir)
    (fun () -> f path)

let qlog_entry i =
  {
    Qlog.spec = Printf.sprintf "RANGE FROM r QUERY s%d EPS 2.5" i;
    digest = "0123456789ab";
    decision = None;
    path = Some "index";
    deltas = [];
    duration_s = 0.001;
    outcome = "ok";
    exit_code = 0;
    domains = 1;
    shards = None;
    trace_id = None;
  }

let read_lines file =
  if not (Sys.file_exists file) then []
  else begin
    let ic = open_in file in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !lines
  end

let test_qlog_rotation () =
  with_qlog_dir @@ fun path ->
  let entry = qlog_entry in
  let line_bytes = String.length (Qlog.render_line ~seq:0 (entry 0)) + 1 in
  (* A limit of two lines: every third write rotates. *)
  let log = Qlog.create ~max_bytes:(2 * line_bytes) path in
  let total = 10 in
  for i = 0 to total - 1 do
    Qlog.log log (entry i)
  done;
  Qlog.close log;
  let rotated = read_lines (path ^ ".1") in
  let live = read_lines path in
  Alcotest.(check bool) "rotation happened" true (rotated <> []);
  Alcotest.(check bool)
    "live file below the limit"
    true
    (List.length live <= 2);
  (* The surviving tail is contiguous: [path.1] holds the lines just
     before the live file's, and every line is valid JSON with the
     expected sequence numbers. *)
  let seqs =
    List.map
      (fun line ->
        match Simq_obs.Json.parse line with
        | Ok json -> (
          match Simq_obs.Json.member "seq" json with
          | Some (Simq_obs.Json.Num v) -> int_of_float v
          | _ -> Alcotest.failf "line without seq: %s" line)
        | Error msg -> Alcotest.failf "bad JSON after rotation: %s" msg)
      (rotated @ live)
  in
  let expected_start = total - List.length seqs in
  Alcotest.(check (list int))
    "contiguous tail of sequence numbers"
    (List.init (List.length seqs) (fun i -> expected_start + i))
    seqs;
  Alcotest.(check int) "all entries seen" total (Qlog.entries_seen log);
  Alcotest.(check int) "all lines written" total (Qlog.lines_written log)

(* Regression: rotation firing on the final pre-drain line leaves only
   [FILE.1] on disk (the replacement file is created lazily by the
   next write, and there is none). [rotated_chain] must return the
   lone rotation so qlog-top / batch --from-qlog still read a
   contiguous tail. *)
let test_qlog_rotation_on_final_line () =
  with_qlog_dir @@ fun path ->
  (* Every written line reaches the one-byte limit, so every write
     rotates — including the last one before close. *)
  let log = Qlog.create ~max_bytes:1 path in
  for i = 0 to 2 do
    Qlog.log log (qlog_entry i)
  done;
  Qlog.close log;
  Alcotest.(check bool)
    "the live file is absent after a final-line rotation" false
    (Sys.file_exists path);
  Alcotest.(check (list string))
    "rotated_chain returns the lone rotation"
    [ path ^ ".1" ]
    (Qlog.rotated_chain path);
  let seqs =
    List.map
      (fun line ->
        match Simq_obs.Json.parse line with
        | Ok json -> (
          match Simq_obs.Json.member "seq" json with
          | Some (Simq_obs.Json.Num v) -> int_of_float v
          | _ -> Alcotest.failf "line without seq: %s" line)
        | Error msg -> Alcotest.failf "bad JSON after rotation: %s" msg)
      (List.concat_map read_lines (Qlog.rotated_chain path))
  in
  Alcotest.(check (list int)) "the chain holds the final line" [ 2 ] seqs

let () =
  Alcotest.run "simq_batch"
    [
      ( "executor",
        [
          Alcotest.test_case "map order and values" `Quick
            test_map_order_and_values;
          Alcotest.test_case "map empty" `Quick test_map_empty;
          Alcotest.test_case "map_timed durations" `Quick
            test_map_timed_durations;
          Alcotest.test_case "profiles length validated" `Quick
            test_profiles_length_validation;
          Alcotest.test_case "profiles threaded per query" `Quick
            test_profiles_are_threaded;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_exception_propagates_lowest_index;
        ] );
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_profiled_batch_eq_sequential ]
        @ [
            Alcotest.test_case "metric totals domain-count-invariant" `Quick
              test_batch_metric_totals_invariant;
          ] );
      ( "qlog",
        [
          Alcotest.test_case "size rotation" `Quick test_qlog_rotation;
          Alcotest.test_case "rotation on the final line" `Quick
            test_qlog_rotation_on_final_line;
        ] );
    ]
