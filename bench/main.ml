(* The benchmark harness: regenerates every figure and table of the
   evaluation (see EXPERIMENTS.md) and finishes with Bechamel
   micro-benchmarks of the core operations.

   Usage:
     dune exec bench/main.exe                 -- everything, full sizes
     dune exec bench/main.exe -- --fast       -- everything, small sizes
     dune exec bench/main.exe -- fig12        -- one experiment
     dune exec bench/main.exe -- micro        -- micro-benchmarks only
     dune exec bench/main.exe -- --jobs 4 par -- scaling run, 4 domains
     dune exec bench/main.exe -- --shards 8 shard -- one shard count

   All synthetic inputs derive from Bench_util.bench_seed, so two runs
   of the same binary measure identical data. *)

module Bench_util = Simq_experiments.Bench_util

let run_micro () =
  let open Bechamel in
  let walk n =
    Simq_series.Generator.random_walk
      (Random.State.make [| Bench_util.derived_seed n |])
      n
  in
  let s128 = walk 128 and s1024 = walk 1024 in
  let batch =
    Simq_series.Generator.random_walks ~seed:(Bench_util.derived_seed 3)
      ~count:1000 ~n:128
  in
  let dataset = Simq_tsindex.Dataset.of_series ~name:"bench" batch in
  let index = Simq_tsindex.Kindex.build dataset in
  let query = batch.(0) in
  let rules = Simq_rewrite.Rule.levenshtein in
  let tests =
    [
      Test.make ~name:"fft-128" (Staged.stage (fun () -> Simq_dsp.Fft.fft_real s128));
      Test.make ~name:"fft-128-flat"
        (Staged.stage (fun () -> Simq_dsp.Fft.fft_real_flat s128));
      Test.make ~name:"fft-1024"
        (Staged.stage (fun () -> Simq_dsp.Fft.fft_real s1024));
      Test.make ~name:"mavg20-128"
        (Staged.stage (fun () ->
             Simq_series.Moving_average.circular (Simq_dsp.Window.uniform 20) s128));
      Test.make ~name:"normal-form-128"
        (Staged.stage (fun () -> Simq_series.Normal_form.normalise s128));
      Test.make ~name:"kindex-range-1000"
        (Staged.stage (fun () ->
             ignore (Simq_tsindex.Kindex.range index ~query ~epsilon:2.)));
      Test.make ~name:"kindex-range-mavg20-1000"
        (Staged.stage (fun () ->
             ignore
               (Simq_tsindex.Kindex.range
                  ~spec:(Simq_tsindex.Spec.Moving_average 20) index ~query
                  ~epsilon:2.)));
      Test.make ~name:"kindex-nn5-1000"
        (Staged.stage (fun () ->
             ignore (Simq_tsindex.Kindex.nearest index ~query ~k:5)));
      Test.make ~name:"edit-distance-16"
        (Staged.stage (fun () ->
             ignore
               (Simq_rewrite.Gen_edit.distance ~rules "abcdabcdabcdabcd"
                  "abdcabdcabdcabdc")));
      Test.make ~name:"seqscan-early-1000"
        (Staged.stage (fun () ->
             ignore
               (Simq_tsindex.Seqscan.range_early_abandon dataset ~query
                  ~epsilon:2.)));
      Test.make ~name:"join-scan-early-1000"
        (Staged.stage (fun () ->
             ignore
               (Simq_tsindex.Join.scan_early_abandon
                  ~spec:(Simq_tsindex.Spec.Moving_average 4) index ~epsilon:2.)));
    ]
  in
  let test = Test.make_grouped ~name:"micro" ~fmt:"%s %s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw_results = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  print_endline "Micro-benchmarks (OLS estimate per run):";
  let rows = ref [] in
  Hashtbl.iter
    (fun measure per_test ->
      if
        String.equal measure (Measure.label Toolkit.Instance.monotonic_clock)
      then
        Hashtbl.iter
          (fun name ols ->
            match Analyze.OLS.estimates ols with
            | Some (est :: _) -> rows := (name, est) :: !rows
            | _ -> ())
          per_test)
    results;
  List.iter
    (fun (name, est) ->
      Printf.printf "  %-34s %12.0f ns/run  (%s)\n" name est
        (Bench_util.fmt_time (est /. 1e9)))
    (List.sort compare !rows);
  print_newline ()

(* [--jobs N] caps the default pool (overrides SIMQ_DOMAINS); returns
   the remaining arguments. Validation matches bin/simq's cmdliner
   converter: anything but an integer >= 1 is a usage error before any
   pool is created. *)
let jobs_usage () =
  prerr_endline "option '--jobs': expected an integer >= 1";
  exit 2

let rec strip_jobs = function
  | [] -> []
  | "--jobs" :: value :: rest -> (
    match int_of_string_opt (String.trim value) with
    | Some domains when domains >= 1 ->
      Simq_parallel.Pool.set_default_domains domains;
      strip_jobs rest
    | _ -> jobs_usage ())
  | "--jobs" :: [] -> jobs_usage ()
  | arg :: rest -> arg :: strip_jobs rest

(* [--metrics[=FILE]], [--trace FILE], [--metrics-port PORT] and
   [--metrics-state FILE] are simq's observability flags, run through
   the same Simq_cli.with_obs: the exposition / Chrome trace is written
   once all experiments finish ("-" means stdout), the port (or
   SIMQ_METRICS_PORT) serves the live exposition while the run is in
   flight, and the saved registry state is loaded before the run and
   rewritten afterwards, persisting planner calibration across
   processes. [--shards K] overrides the shard experiment's count. *)
let metrics_dest = ref None
let trace_dest = ref None
let metrics_port = ref None
let metrics_state = ref None

let obs_usage opt expected =
  Printf.eprintf "option '%s': expected %s\n" opt expected;
  exit 2

let rec strip_obs = function
  | [] -> []
  | "--metrics" :: rest ->
    metrics_dest := Some "-";
    strip_obs rest
  | "--trace" :: file :: rest ->
    trace_dest := Some file;
    strip_obs rest
  | "--trace" :: [] ->
    prerr_endline "--trace expects a file name";
    exit 2
  | "--metrics-port" :: value :: rest -> (
    match int_of_string_opt (String.trim value) with
    | Some port when port >= 0 && port <= 65535 ->
      metrics_port := Some port;
      strip_obs rest
    | _ ->
      prerr_endline "option '--metrics-port': expected a port number";
      exit 2)
  | "--metrics-port" :: [] ->
    prerr_endline "option '--metrics-port': expected a port number";
    exit 2
  | "--metrics-state" :: file :: rest ->
    metrics_state := Some file;
    strip_obs rest
  | "--metrics-state" :: [] -> obs_usage "--metrics-state" "a file name"
  | "--shards" :: value :: rest -> (
    match int_of_string_opt (String.trim value) with
    | Some k when k >= 1 ->
      Bench_util.shard_override := Some k;
      strip_obs rest
    | _ -> obs_usage "--shards" "an integer >= 1")
  | "--shards" :: [] -> obs_usage "--shards" "an integer >= 1"
  | arg :: rest when String.length arg > 10 && String.sub arg 0 10 = "--metrics=" ->
    metrics_dest := Some (String.sub arg 10 (String.length arg - 10));
    strip_obs rest
  | arg :: rest -> arg :: strip_obs rest

let () =
  let args = Array.to_list Sys.argv |> List.tl |> strip_jobs |> strip_obs in
  let fast = List.mem "--fast" args in
  let names = List.filter (fun a -> a <> "--fast") args in
  let names = if names = [] then [ "all"; "micro" ] else names in
  let run name =
    if String.equal name "micro" then Ok (run_micro ())
    else
      Result.map_error
        (fun msg -> Simq_cli.Usage msg)
        (Simq_experiments.Experiments.run ~fast name)
  in
  match
    Simq_cli.with_obs
      ?metrics_port:(Simq_cli.resolve_metrics_port !metrics_port)
      ?metrics_state:!metrics_state ~metrics:!metrics_dest ~trace:!trace_dest
      (fun () ->
        List.fold_left (fun acc name -> Result.bind acc (fun () -> run name))
          (Ok ()) names)
  with
  | Ok () -> ()
  | Error e ->
    prerr_endline ("bench: " ^ Simq_cli.message e);
    exit (Simq_cli.exit_code e)
