(* The per-query profiling layer (Simq_obs.Profile / Qlog / Json):
   tree construction and rendering, the JSON grammar of both exports,
   deterministic query-log sampling, offline aggregation, the span
   tree of a traced query repeating its operator tree, and the
   stack-wide invariance guarantee — attaching a profile or a query log
   never changes answers, and the merged counter totals and the
   rendered tree (timings stripped) are identical at every domain
   count. *)

module Profile = Simq_obs.Profile
module Trace = Simq_obs.Trace
module Qlog = Simq_obs.Qlog
module Json = Simq_obs.Json
module Metrics = Simq_obs.Metrics
module Pool = Simq_parallel.Pool
module Generator = Simq_series.Generator
open Simq_tsindex

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

(* --- Json ------------------------------------------------------------- *)

let test_json_roundtrip_basics () =
  let cases =
    [
      Json.Null; Json.Bool true; Json.Bool false; Json.Num 0.;
      Json.Num 42.; Json.Num (-3.5); Json.Num 1e15; Json.Str "";
      Json.Str "plain"; Json.Str "esc \" \\ \n \t \r \b \012 done";
      Json.Str "unicode \xc3\xa9\xe2\x82\xac";
      Json.Arr []; Json.Arr [ Json.Num 1.; Json.Str "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [ ("a", Json.Num 1.); ("b", Json.Arr [ Json.Bool false ]);
          ("nested", Json.Obj [ ("c", Json.Str "d") ]) ];
    ]
  in
  List.iter
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' ->
        Alcotest.(check bool)
          (Printf.sprintf "round trip %s" (Json.to_string v))
          true (v = v')
      | Error msg -> Alcotest.failf "%s did not parse: %s" (Json.to_string v) msg)
    cases

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must not parse" s)
    [ ""; "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\":}"; "1 2"; "nullx" ]

let json_gen =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Num (float_of_int n)) (int_range (-1000000) 1000000);
        map (fun f -> Json.Num f) (float_bound_exclusive 1e6);
        map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 1 then scalar
          else
            oneof
              [
                scalar;
                map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (n / 2)));
                map
                  (fun l -> Json.Obj l)
                  (list_size (int_range 0 4)
                     (pair (string_size ~gen:printable (int_range 1 8)) (self (n / 2))));
              ])
        (min n 16))

let prop_json_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"Json.to_string/parse round trip"
    json_gen (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' -> v = v'
      | Error _ -> false)

(* --- Profile ---------------------------------------------------------- *)

let build_sample_profile () =
  let p = Profile.create () in
  let prof = Some p in
  Profile.with_op prof "planner" (fun root ->
      Profile.set_detail root "index";
      Profile.with_op prof "kindex.range" (fun child ->
          Profile.with_op prof "kindex.descent" (fun grand ->
              Profile.add_pages grand 7;
              Profile.add_rows_out grand 3);
          Profile.add_rows_in child 100;
          Profile.add_rows_out child 3;
          Profile.add_candidates child 3;
          Profile.add_survivors child 2;
          Profile.add_early_abandon child 1;
          Profile.add_event child "retry: attempt 1 abandoned"));
  p

let test_profile_tree_shape () =
  let p = build_sample_profile () in
  Alcotest.(check bool) "well formed" true (Profile.well_formed p);
  (match Profile.roots p with
  | [ root ] ->
    Alcotest.(check string) "root name" "planner" (Profile.name root);
    Alcotest.(check string) "root detail" "index" (Profile.detail root);
    (match Profile.children root with
    | [ child ] ->
      Alcotest.(check int) "rows in" 100 (Profile.rows_in child);
      Alcotest.(check int) "survivors" 2 (Profile.survivors child);
      Alcotest.(check (list string))
        "events" [ "retry: attempt 1 abandoned" ]
        (Profile.events child)
    | _ -> Alcotest.fail "one child expected")
  | _ -> Alcotest.fail "one root expected");
  match Profile.find p "kindex.descent" with
  | Some n -> Alcotest.(check int) "found by name" 7 (Profile.pages n)
  | None -> Alcotest.fail "find must locate the grandchild"

let test_profile_render () =
  let p = build_sample_profile () in
  let text = Profile.render ~timings:false p in
  Alcotest.(check bool) "root line" true (contains text "-> planner [index]");
  Alcotest.(check bool)
    "child counters" true
    (contains text "rows_in=100" && contains text "survivors=2");
  Alcotest.(check bool) "event line" true
    (contains text "! retry: attempt 1 abandoned");
  Alcotest.(check bool) "no timings when stripped" false
    (contains text "time=");
  Alcotest.(check bool) "timings present by default" true
    (contains (Profile.render p) "time=")

let test_profile_json_parses () =
  let p = build_sample_profile () in
  match Json.parse (Json.to_string (Profile.to_json p)) with
  | Error msg -> Alcotest.failf "profile JSON did not parse: %s" msg
  | Ok v ->
    (match Json.member "event" v with
    | Some (Json.Str "simq.profile") -> ()
    | _ -> Alcotest.fail "profile JSON must be tagged simq.profile");
    (match Json.member "roots" v with
    | Some (Json.Arr [ root ]) ->
      Alcotest.(check (option string))
        "op" (Some "planner")
        (Option.bind (Json.member "op" root) Json.string_of)
    | _ -> Alcotest.fail "one root expected in JSON")

let test_profile_raise_closes_brackets () =
  let p = Profile.create () in
  let prof = Some p in
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      (match
         Profile.with_op prof "outer" (fun _ ->
             Profile.with_op prof "inner" (fun _ -> raise Exit))
       with
      | () -> Alcotest.fail "the raise must escape both brackets"
      | exception Exit -> ());
      Alcotest.(check bool) "well formed after the raise" true
        (Profile.well_formed p);
      Alcotest.(check (option string)) "no node left open" None
        (Option.map Profile.name (Profile.current prof));
      (match Profile.roots p with
      | [ outer ] ->
        Alcotest.(check (list string)) "inner stays the child" [ "inner" ]
          (List.map Profile.name (Profile.children outer))
      | _ -> Alcotest.fail "one root expected");
      Alcotest.(check int) "no span left open" 0 (Trace.open_spans ());
      Alcotest.(check int) "both spans recorded" 2 (Trace.event_count ()))

let test_profile_disabled_is_noop () =
  Trace.reset ();
  let result =
    Profile.with_op None "never" (fun n ->
        Alcotest.(check bool) "no node allocated" true (n = None);
        Profile.add_rows_in n 5;
        Profile.add_event n "nope";
        42)
  in
  Alcotest.(check int) "the body's value" 42 result;
  Alcotest.(check int) "no span recorded with tracing off" 0
    (Trace.event_count ())

(* A random script of nested brackets: [0]/[1] open an operator that
   runs the rest of the script until its [2], [7] raises out of every
   open bracket, the rest record on the innermost node. *)
let prop_profile_well_formed =
  QCheck2.Test.make ~count:200 ~name:"random profile scripts are well formed"
    QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 7))
    (fun script ->
      let p = Profile.create () in
      let prof = Some p in
      let rec run node = function
        | [] -> []
        | ((0 | 1) as op) :: rest ->
          let rest =
            Profile.with_op prof (Printf.sprintf "op%d" op) (fun n ->
                run n rest)
          in
          run node rest
        | 2 :: rest -> rest
        | 3 :: rest ->
          Profile.add_rows_in node 2;
          run node rest
        | 4 :: rest ->
          Profile.add_pages node 1;
          run node rest
        | 5 :: rest ->
          Profile.add_event node "e";
          run node rest
        | 6 :: rest ->
          Profile.add_candidates node 3;
          run node rest
        | _ -> raise Exit
      in
      let rec top script =
        match run None script with [] -> () | rest -> top rest
      in
      (try top script with Exit -> ());
      Profile.current prof = None && Profile.well_formed p)

(* --- Qlog ------------------------------------------------------------- *)

let sample_entry ?(duration_s = 0.004) ?(outcome = "ok") ?(exit_code = 0)
    ?shards () =
  {
    Qlog.spec = "range mavg7 eps=0.4";
    digest = "0123456789ab";
    decision = Some "admit";
    path = Some "index";
    deltas = [ ("simq_kindex_candidates_total", 12) ];
    duration_s;
    outcome;
    exit_code;
    domains = 2;
    shards;
    trace_id = Some 42;
  }

let test_qlog_line_grammar () =
  let line = Qlog.render_line ~seq:7 (sample_entry ()) in
  match Json.parse line with
  | Error msg -> Alcotest.failf "qlog line did not parse: %s" msg
  | Ok v ->
    let str f = Option.bind (Json.member f v) Json.string_of in
    let num f = Option.bind (Json.member f v) Json.number in
    Alcotest.(check (option string)) "event" (Some "simq.qlog") (str "event");
    Alcotest.(check (option string)) "spec" (Some "range mavg7 eps=0.4")
      (str "spec");
    Alcotest.(check (option string)) "decision" (Some "admit")
      (str "decision");
    Alcotest.(check (option (float 1e-9))) "seq" (Some 7.) (num "seq");
    Alcotest.(check (option (float 1e-9))) "duration" (Some 4.)
      (num "duration_ms");
    Alcotest.(check (option (float 1e-9))) "trace_id" (Some 42.)
      (num "trace_id");
    (match Json.member "deltas" v with
    | Some (Json.Obj [ ("simq_kindex_candidates_total", Json.Num 12.) ]) -> ()
    | _ -> Alcotest.fail "deltas object expected")

let prop_qlog_lines_parse =
  QCheck2.Test.make ~count:200 ~name:"every rendered qlog line is valid JSON"
    QCheck2.Gen.(
      pair
        (string_size ~gen:(char_range '\000' '\255') (int_range 0 30))
        (pair (option (string_size ~gen:printable (int_range 0 10)))
           (list_size (int_range 0 5)
              (pair (string_size ~gen:printable (int_range 0 12))
                 (int_range 0 100000)))))
    (fun (spec, (path, deltas)) ->
      let entry =
        {
          Qlog.spec;
          digest = "deadbeef0000";
          decision = None;
          path;
          deltas;
          duration_s = 0.123;
          outcome = "ok";
          exit_code = 0;
          domains = 4;
          shards = None;
          trace_id = None;
        }
      in
      match Json.parse (Qlog.render_line ~seq:3 entry) with
      | Ok v -> (
        match Json.member "spec" v with
        | Some (Json.Str s) -> s = spec
        | _ -> false)
      | Error _ -> false)

let test_qlog_sampling () =
  let file = Filename.temp_file "simq_qlog" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let t = Qlog.create ~sample:3 ~slow_ms:50. file in
      for i = 0 to 9 do
        (* Query 5 is slow: logged regardless of the 1-in-3 filter. *)
        let duration_s = if i = 5 then 0.2 else 0.001 in
        Qlog.log t (sample_entry ~duration_s ())
      done;
      Qlog.close t;
      Alcotest.(check int) "all offered" 10 (Qlog.entries_seen t);
      (* Kept: seq 0, 3, 6, 9 by sampling, plus slow seq 5. *)
      Alcotest.(check int) "sampled + slow" 5 (Qlog.lines_written t);
      Qlog.log t (sample_entry ());
      Alcotest.(check int) "log after close is a no-op" 10
        (Qlog.entries_seen t);
      let seqs =
        In_channel.with_open_text file In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
        |> List.map (fun l ->
               match Json.parse l with
               | Ok v ->
                 int_of_float
                   (Option.value ~default:(-1.)
                      (Option.bind (Json.member "seq" v) Json.number))
               | Error msg -> Alcotest.failf "unparseable line: %s" msg)
      in
      Alcotest.(check (list int))
        "deterministic kept sequence numbers" [ 0; 3; 5; 6; 9 ] seqs)

let test_qlog_counter_deltas () =
  let registry = Metrics.create_registry () in
  let a = Metrics.counter ~registry "test_qlog_a_total" in
  let b = Metrics.counter ~registry "test_qlog_b_total" in
  Metrics.with_enabled true (fun () ->
      Metrics.add a 5;
      let before = Metrics.snapshot ~registry () in
      Metrics.add a 3;
      ignore b;
      let after = Metrics.snapshot ~registry () in
      let deltas = Qlog.counter_deltas ~before ~after in
      Alcotest.(check (list (pair string int)))
        "only moved counters, positive deltas"
        [ ("test_qlog_a_total", 3) ]
        deltas;
      List.iter (fun (_, d) -> Alcotest.(check bool) "positive" true (d > 0))
        deltas)

let test_qlog_aggregate () =
  let mk seq spec path duration_ms pages =
    Qlog.render_line ~seq
      {
        Qlog.spec;
        digest = "d";
        decision = Some (if seq mod 2 = 0 then "admit" else "reject");
        path = Some path;
        deltas = [ ("simq_buffer_pool_misses_total", pages) ];
        duration_s = duration_ms /. 1000.;
        outcome = (if path = "scan" then "ok" else "ok");
        exit_code = 0;
        domains = 1;
        shards =
          (if path = "scan" then None
           else Some { Qlog.fanout = 2; pruned = 1; degraded = 0 });
        (* Line 0 predates the field: it must stay out of by_trace but
           rank with trace 0 in the duration table. *)
        trace_id = (if seq = 0 then None else Some (100 + seq));
      }
  in
  let lines =
    [
      mk 0 "q0" "index" 1. 10; mk 1 "q1" "scan" 9. 200; mk 2 "q2" "index" 3. 30;
      Json.to_string (Json.Obj [ ("event", Json.Str "other") ]);
    ]
  in
  let parsed =
    List.map
      (fun l ->
        match Json.parse l with
        | Ok v -> v
        | Error msg -> Alcotest.failf "fixture line: %s" msg)
      lines
  in
  let agg = Qlog.aggregate ~top:2 parsed in
  Alcotest.(check int) "entries (non-qlog skipped)" 3 agg.Qlog.entries;
  Alcotest.(check (list (pair string int)))
    "by path descending" [ ("index", 2); ("scan", 1) ] agg.Qlog.by_path;
  Alcotest.(check (list (pair int int)))
    "by fanout (unsharded lines stay out)" [ (2, 2) ] agg.Qlog.by_fanout;
  (match agg.Qlog.top_by_duration with
  | (1, "q1", _, 101) :: (2, "q2", _, 102) :: [] -> ()
  | _ -> Alcotest.fail "slowest first, top 2 kept, trace ids carried");
  Alcotest.(check (list int))
    "by trace: heaviest first, traceless lines out" [ 101; 102 ]
    (List.map fst agg.Qlog.by_trace);
  match agg.Qlog.top_by_pages with
  | (1, "q1", 200) :: (2, "q2", 30) :: [] -> ()
  | _ -> Alcotest.fail "pages ranked from buffer-pool deltas"

(* --- Stack-wide invariance ------------------------------------------- *)

(* The query-level families whose per-chunk adds cover the input
   exactly once. *)
let families =
  [
    "simq_scan_candidates_total"; "simq_scan_survivors_total";
    "simq_scan_early_abandon_total"; "simq_kindex_candidates_total";
    "simq_kindex_survivors_total";
  ]

let test_profile_invariance_across_domains () =
  let batch = Generator.random_walks ~seed:1995 ~count:80 ~n:32 in
  let dataset = Dataset.of_series ~pool:Pool.sequential ~name:"inv" batch in
  let index = Kindex.build dataset in
  let stats = Planner.collect dataset in
  (* The planner picks the index for the selective queries and the
     scan for the last, which covers the relation: both access paths
     run profiled. *)
  let queries =
    [ (batch.(0), 1.5); (batch.(3), 0.7); (batch.(7), 2.5); (batch.(9), 50.) ]
  in
  let run_at domains ~profiled =
    let pool = Pool.create ~domains in
    let out =
      Metrics.with_enabled true (fun () ->
          Metrics.reset ();
          List.map
            (fun (q, eps) ->
              let profile = if profiled then Some (Profile.create ()) else None in
              let result =
                Planner.range_resilient ~pool ~stats ?profile index ~query:q
                  ~epsilon:eps
              in
              let answers =
                match result with
                | Ok r ->
                  r.Planner.answers
                | Error _ -> Alcotest.fail "resilient range must succeed"
              in
              let tree =
                Option.map (Profile.render ~timings:false) profile
              in
              Option.iter
                (fun p ->
                  Alcotest.(check bool) "profile well formed" true
                    (Profile.well_formed p))
                profile;
              (answers, tree))
            queries)
    in
    let totals =
      List.map (fun name -> Metrics.counter_total (Metrics.counter name))
        families
    in
    Pool.shutdown pool;
    (out, totals)
  in
  let baseline_answers, baseline_totals = run_at 1 ~profiled:false in
  Alcotest.(check bool) "both access paths ran" true
    (List.nth baseline_totals 0 > 0 && List.nth baseline_totals 3 > 0);
  List.iter
    (fun domains ->
      let on, totals_on = run_at domains ~profiled:true in
      Alcotest.(check bool)
        (Printf.sprintf "answers identical, profile on, %d domains" domains)
        true
        (List.map fst on = List.map fst baseline_answers);
      Alcotest.(check (list int))
        (Printf.sprintf "merged totals identical at %d domains" domains)
        baseline_totals totals_on;
      (* The rendered tree, timings stripped, is domain-count
         independent. *)
      let reference = List.map snd (fst (run_at 1 ~profiled:true)) in
      Alcotest.(check bool)
        (Printf.sprintf "tree structure identical at %d domains" domains)
        true
        (List.map snd on = reference))
    [ 1; 2; 4 ]

(* NEAREST's operator node counts its work: entries keyed (rows in),
   entries refined (candidates) and nodes expanded (pages). The data
   set is prepared on pools of 1, 2 and 4 domains (each writes its
   spectra into the shared buffer from several domains), and the
   answers, the counts and the rendered tree (timings stripped) are
   identical at every domain count. *)
let test_nearest_counts_invariant_across_domains () =
  let batch = Generator.random_walks ~seed:1996 ~count:300 ~n:32 in
  let specs =
    [ Spec.Identity; Spec.Moving_average 3; Spec.Reverse; Spec.Warp 2 ]
  in
  let run_at domains =
    let pool = Pool.create ~domains in
    let dataset = Dataset.of_series ~pool ~name:"nn" batch in
    Pool.shutdown pool;
    let index = Kindex.build ~max_fill:8 dataset in
    List.map
      (fun spec ->
        let query =
          match spec with
          | Spec.Warp m -> Simq_series.Warp.expand m batch.(4)
          | _ -> Array.map (fun v -> v +. 0.3) batch.(4)
        in
        let profile = Profile.create () in
        let answers =
          match Kindex.nearest_checked ~spec ~profile index ~query ~k:6 with
          | Ok r ->
            r.Kindex.neighbours
          | Error _ -> Alcotest.fail "nearest must succeed"
        in
        let counts =
          match Profile.find profile "kindex.nearest" with
          | Some n -> (Profile.rows_in n, Profile.candidates n, Profile.pages n)
          | None -> Alcotest.fail "no kindex.nearest node"
        in
        (answers, counts, Profile.render ~timings:false profile))
      specs
  in
  let reference = run_at 1 in
  List.iter2
    (fun spec (_, (keyed, refined, pages), _) ->
      let name = Spec.name spec in
      Alcotest.(check bool) (name ^ ": entries keyed") true (keyed > 0);
      Alcotest.(check bool) (name ^ ": refined no more than keyed") true
        (refined > 0 && refined <= keyed);
      Alcotest.(check bool) (name ^ ": nodes expanded") true (pages > 0))
    specs reference;
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "answers, counts and tree identical at %d domains"
           domains)
        true
        (run_at domains = reference))
    [ 2; 4 ]

(* --- Span tree = profile tree ------------------------------------------ *)

(* An operator forest: names, order and nesting. *)
type forest = Op of string * forest list

let rec pp_forest ppf (Op (name, kids)) =
  match kids with
  | [] -> Format.pp_print_string ppf name
  | _ ->
    Format.fprintf ppf "%s(%a)" name
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         pp_forest)
      kids

let forest = Alcotest.testable pp_forest ( = )

let profile_forest p =
  let rec of_node n = Op (Profile.name n, List.map of_node (Profile.children n)) in
  List.map of_node (Profile.roots p)

(* Every span of the exported Chrome trace: (domain, id, parent, name). *)
let exported_spans () =
  let file = Filename.temp_file "simq_spans" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Trace.export_file file;
      let json =
        match Json.parse (In_channel.with_open_text file In_channel.input_all) with
        | Ok v -> v
        | Error msg -> Alcotest.failf "trace did not parse: %s" msg
      in
      let num name v =
        match Option.bind (Json.member name v) Json.number with
        | Some x -> int_of_float x
        | None -> Alcotest.failf "span without %s" name
      in
      List.map
        (fun ev ->
          let args = Option.get (Json.member "args" ev) in
          ( num "tid" ev,
            num "id" args,
            num "parent" args,
            Option.get (Option.bind (Json.member "name" ev) Json.string_of) ))
        (Option.get (Option.bind (Json.member "traceEvents" json) Json.arr)))

(* The forest the coordinating domain's spans named like one of the
   profile's nodes form: each hangs under its nearest such ancestor,
   siblings in the order they started (span ids are allocated in start
   order). Spans of other names (the per-shard traversals, merges,
   admission) are transparent. *)
let span_forest ~names spans =
  let tid = (Domain.self () :> int) in
  let mine = List.filter (fun (d, _, _, _) -> d = tid) spans in
  let by_id = Hashtbl.create 64 in
  List.iter (fun (_, id, parent, name) -> Hashtbl.replace by_id id (parent, name)) mine;
  let named name = List.mem name names in
  let rec owner parent =
    match Hashtbl.find_opt by_id parent with
    | None -> 0
    | Some (up, name) -> if named name then parent else owner up
  in
  let kept =
    List.filter (fun (_, _, _, name) -> named name) mine
    |> List.sort (fun (_, a, _, _) (_, b, _, _) -> compare a b)
  in
  let rec under o =
    List.filter_map
      (fun (_, id, parent, name) ->
        if owner parent = o then Some (Op (name, under id)) else None)
      kept
  in
  under 0

(* Runs [query] with a fresh profile and tracing on, then checks the
   coordinating domain's spans against the profile tree, and that no
   span on any domain sits directly inside one of its own name. *)
let check_spans label ~expect query =
  let profile = Profile.create () in
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled false)
    (fun () -> query profile);
  let spans = exported_spans () in
  Trace.reset ();
  let rec names acc (Op (name, kids)) = List.fold_left names (name :: acc) kids in
  let ops = profile_forest profile in
  let names = List.fold_left names [] ops in
  List.iter
    (fun n ->
      Alcotest.(check bool) (label ^ ": has a " ^ n ^ " node") true (List.mem n names))
    expect;
  Alcotest.(check bool) (label ^ ": profile well formed") true
    (Profile.well_formed profile);
  Alcotest.(check (list forest)) (label ^ ": spans nest like the nodes") ops
    (span_forest ~names spans);
  List.iter
    (fun (d, _, parent, name) ->
      match List.find_opt (fun (d', id, _, _) -> d' = d && id = parent) spans with
      | Some (_, _, _, up) when up = name ->
        Alcotest.failf "%s: a %s span directly inside another" label name
      | _ -> ())
    spans

let every_attempt_faults () =
  let module Injector = Simq_fault.Injector in
  Simq_fault.Budget.create
    ~faults:
      (Injector.create
         ~node_accesses:(Injector.transient ~schedule:[ 1; 2; 3 ] ())
         ~seed:5 ())
    ()

let test_span_tree_equals_profile_tree () =
  let batch = Generator.random_walks ~seed:2024 ~count:240 ~n:64 in
  let dataset = Dataset.of_series ~pool:Pool.sequential ~name:"spans" batch in
  let index = Kindex.build ~max_fill:8 dataset in
  let stats = Planner.collect dataset in
  let sketch = Simq_sketch.create dataset in
  let shards = Simq_shard.create ~sketch:Simq_sketch.default ~shards:4 dataset in
  let query = Array.map (fun v -> v +. 0.2) batch.(7) in
  let spec = Spec.Moving_average 4 in
  let ok = function Ok _ -> () | Error _ -> Alcotest.fail "the query must answer" in
  let planner ?budget ?admission ?sketch profile =
    ok
      (Planner.range_resilient ~spec ~stats ?budget ?admission ?sketch
         ~profile index ~query ~epsilon:2.)
  in
  check_spans "planner index range with a sketch and admission"
    ~expect:[ "planner"; "plan"; "admit"; "kindex.range"; "sketch.coarse" ]
    (planner
       ~admission:(Simq_admission.create ())
       ~sketch:(fun q -> Simq_sketch.funnel sketch ~spec ~query:q));
  check_spans "planner degraded to the scan"
    ~expect:[ "planner"; "kindex.range"; "seqscan.range"; "seqscan.compute" ]
    (planner ~budget:(every_attempt_faults ()));
  check_spans "a retried attempt" ~expect:[ "planner"; "kindex.descent" ]
    (planner
       ~budget:
         (Simq_fault.Budget.create
            ~faults:
              (Simq_fault.Injector.create
                 ~node_accesses:(Simq_fault.Injector.transient ~schedule:[ 1 ] ())
                 ~seed:5 ())
            ()));
  check_spans "nearest checked" ~expect:[ "kindex.nearest" ] (fun profile ->
      ok (Kindex.nearest_checked ~spec ~profile index ~query ~k:5));
  check_spans "sharded range"
    ~expect:[ "shard.scatter"; "shard.3"; "shard.gather" ]
    (fun profile ->
      ok (Simq_shard.range_checked ~spec ~profile shards ~query ~epsilon:2.));
  check_spans "sharded nearest"
    ~expect:[ "shard.scatter"; "shard.0"; "shard.gather" ]
    (fun profile ->
      ok (Simq_shard.nearest_checked ~spec ~profile shards ~query ~k:5));
  check_spans "scan join" ~expect:[ "join.scan" ] (fun profile ->
      ok (Join.scan_checked ~spec ~profile index ~epsilon:1.));
  check_spans "index join" ~expect:[ "join.index" ] (fun profile ->
      ok (Join.index ~spec ~profile index ~epsilon:1.));
  let subseq = Subseq.build ~k:2 ~window:16 (Array.sub batch 0 20) in
  let window = Array.sub batch.(3) 10 16 in
  check_spans "subsequence range"
    ~expect:[ "subseq.range"; "subseq.descent"; "subseq.postfilter" ]
    (fun profile -> ignore (Subseq.range ~profile subseq ~query:window ~epsilon:1.));
  check_spans "subsequence nearest" ~expect:[ "subseq.nearest" ] (fun profile ->
      ignore (Subseq.nearest ~profile subseq ~query:window ~k:3))

let test_qlog_never_changes_answers () =
  let batch = Generator.random_walks ~seed:7 ~count:60 ~n:32 in
  let dataset = Dataset.of_series ~pool:Pool.sequential ~name:"inv" batch in
  let engine = Simq_serve.Engine.create (Kindex.build dataset) in
  let spec = "RANGE FROM r QUERY s2 EPS 1.2" in
  let run ?qlog () =
    match Simq_serve.Engine.exec ?qlog engine spec with
    | Ok o -> Json.to_string o.Simq_serve.Engine.results
    | Error _ -> Alcotest.fail "the range must succeed"
  in
  let off = run () in
  let file = Filename.temp_file "simq_qlog" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let t = Qlog.create file in
      let on = Metrics.with_enabled true (fun () -> run ~qlog:t ()) in
      Qlog.close t;
      Alcotest.(check string) "answers identical with a qlog" off on;
      Alcotest.(check int) "one line per query" 1 (Qlog.lines_written t);
      let line = In_channel.with_open_text file In_channel.input_all in
      match Json.parse (String.trim line) with
      | Ok v ->
        Alcotest.(check (option string))
          "path logged" (Some "index")
          (Option.bind (Json.member "path" v) Json.string_of)
      | Error msg -> Alcotest.failf "qlog line unparseable: %s" msg)

(* A sharded fan-out whose shards fail both their index path and their
   own scan exits 4 with the error on its [shard.scatter] node, the way
   an unsharded operator records one on its own node. *)
let test_failed_scatter_records_error () =
  let batch = Simq_workload.Stocklike.batch ~seed:1995 ~count:300 ~n:64 in
  let index = Kindex.build (Dataset.of_series ~name:"fail" batch) in
  let engine =
    Simq_serve.Engine.create ~shards:4 ~sketch:Simq_sketch.default
      ~admission:Simq_admission.default
      ~budget:(Simq_fault.Budget.create ~max_comparisons:3 ())
      index
  in
  let profile = Profile.create () in
  match
    Simq_serve.Engine.exec ~profile engine
      "RANGE FROM r USING mavg(4) QUERY s3 EPS 3"
  with
  | Ok _ -> Alcotest.fail "three comparisons cannot answer the range"
  | Error e ->
    Alcotest.(check int) "exit code" 4 (Simq_cli.exit_code e);
    (match Profile.find profile "shard.scatter" with
    | None -> Alcotest.fail "no shard.scatter node"
    | Some node ->
      Alcotest.(check bool) "shard.scatter carries the error" true
        (List.exists
           (fun ev -> String.starts_with ~prefix:"error: " ev)
           (Profile.events node)));
    Alcotest.(check bool) "tree well formed" true (Profile.well_formed profile)

let () =
  Alcotest.run "simq_profile"
    [
      ( "json",
        [
          Alcotest.test_case "round trip basics" `Quick
            test_json_roundtrip_basics;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "profile",
        [
          Alcotest.test_case "tree shape and accessors" `Quick
            test_profile_tree_shape;
          Alcotest.test_case "render text tree" `Quick test_profile_render;
          Alcotest.test_case "JSON export parses" `Quick
            test_profile_json_parses;
          Alcotest.test_case
            "a raise inside nested brackets closes every node and span" `Quick
            test_profile_raise_closes_brackets;
          Alcotest.test_case "disabled path is a no-op" `Quick
            test_profile_disabled_is_noop;
          QCheck_alcotest.to_alcotest prop_profile_well_formed;
        ] );
      ( "qlog",
        [
          Alcotest.test_case "line grammar" `Quick test_qlog_line_grammar;
          Alcotest.test_case "deterministic sampling + slow threshold" `Quick
            test_qlog_sampling;
          Alcotest.test_case "counter deltas" `Quick test_qlog_counter_deltas;
          Alcotest.test_case "offline aggregation" `Quick test_qlog_aggregate;
          QCheck_alcotest.to_alcotest prop_qlog_lines_parse;
        ] );
      ( "span tree",
        [
          Alcotest.test_case "span tree equals profile tree" `Quick
            test_span_tree_equals_profile_tree;
          Alcotest.test_case "failed scatter records its error" `Quick
            test_failed_scatter_records_error;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "nearest counts across domains" `Quick
            test_nearest_counts_invariant_across_domains;
          Alcotest.test_case "profile on/off across domains" `Quick
            test_profile_invariance_across_domains;
          Alcotest.test_case "qlog never changes answers" `Quick
            test_qlog_never_changes_answers;
        ] );
    ]
