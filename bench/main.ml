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

(* [--metrics[=FILE]], [--trace FILE] and [--metrics-port PORT] enable
   the observability subsystem for the whole run; the exposition /
   Chrome trace is written once all experiments finish ("-" means
   stdout), and the port (or SIMQ_METRICS_PORT) serves the live
   exposition while the run is in flight.

   [--qlog FILE] (with [--qlog-sample N] and [--qlog-slow-ms T])
   installs the ambient query log, so every query the experiments route
   through Planner.range_resilient appends a line. [--metrics-state
   FILE] loads the saved registry state before the run and rewrites it
   afterwards, persisting planner calibration across processes. *)
let metrics_dest = ref None
let trace_dest = ref None
let metrics_port = ref None
let qlog_dest = ref None
let qlog_sample = ref 1
let qlog_slow_ms = ref None
let qlog_max_bytes = ref None
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
  | "--qlog" :: file :: rest ->
    qlog_dest := Some file;
    strip_obs rest
  | "--qlog" :: [] -> obs_usage "--qlog" "a file name"
  | "--qlog-sample" :: value :: rest -> (
    match int_of_string_opt (String.trim value) with
    | Some n when n >= 1 ->
      qlog_sample := n;
      strip_obs rest
    | _ -> obs_usage "--qlog-sample" "an integer >= 1")
  | "--qlog-sample" :: [] -> obs_usage "--qlog-sample" "an integer >= 1"
  | "--qlog-slow-ms" :: value :: rest -> (
    match float_of_string_opt (String.trim value) with
    | Some t when t >= 0. ->
      qlog_slow_ms := Some t;
      strip_obs rest
    | _ -> obs_usage "--qlog-slow-ms" "a duration in milliseconds")
  | "--qlog-slow-ms" :: [] -> obs_usage "--qlog-slow-ms" "a duration in milliseconds"
  | "--qlog-max-bytes" :: value :: rest -> (
    match int_of_string_opt (String.trim value) with
    | Some b when b >= 1 ->
      qlog_max_bytes := Some b;
      strip_obs rest
    | _ -> obs_usage "--qlog-max-bytes" "an integer >= 1")
  | "--qlog-max-bytes" :: [] -> obs_usage "--qlog-max-bytes" "an integer >= 1"
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

let dump_obs () =
  let module Metrics = Simq_obs.Metrics in
  let module Trace = Simq_obs.Trace in
  (match !metrics_dest with
  | None -> ()
  | Some "-" -> print_string (Metrics.exposition ())
  | Some file ->
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Metrics.exposition ())));
  (match !trace_dest with
  | None -> ()
  | Some file -> Trace.export_file file);
  match !metrics_state with
  | None -> ()
  | Some file -> Metrics.save_state file

let () =
  let args = Array.to_list Sys.argv |> List.tl |> strip_jobs |> strip_obs in
  if !metrics_dest <> None then Simq_obs.Metrics.set_enabled true;
  if !trace_dest <> None then Simq_obs.Trace.set_enabled true;
  (* Like the CLI: persisted state and qlog deltas need live counters. *)
  if !metrics_state <> None || !qlog_dest <> None then
    Simq_obs.Metrics.set_enabled true;
  (match !metrics_state with
  | Some file when Sys.file_exists file -> (
    match Simq_obs.Metrics.load_state file with
    | () -> ()
    | exception (Failure msg | Sys_error msg) ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
  | _ -> ());
  let qlog =
    match !qlog_dest with
    | None -> None
    | Some file -> (
      match
        Simq_obs.Qlog.create ~sample:!qlog_sample ?slow_ms:!qlog_slow_ms
          ?max_bytes:!qlog_max_bytes file
      with
      | t -> Some t
      | exception Sys_error msg ->
        prerr_endline ("bench: " ^ msg);
        exit 2)
  in
  Simq_obs.Qlog.install qlog;
  let server =
    match Simq_cli.resolve_metrics_port !metrics_port with
    | None -> None
    | Some port ->
      Simq_obs.Metrics.set_enabled true;
      let server = Simq_obs.Serve.start ~port () in
      Printf.eprintf "bench: serving metrics on http://127.0.0.1:%d/metrics\n%!"
        (Simq_obs.Serve.port server);
      Some server
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Simq_obs.Serve.stop server;
      Simq_obs.Qlog.install None;
      Option.iter Simq_obs.Qlog.close qlog)
    (fun () ->
      let fast = List.mem "--fast" args in
      let names = List.filter (fun a -> a <> "--fast") args in
      let names = if names = [] then [ "all"; "micro" ] else names in
      List.iter
        (fun name ->
          if String.equal name "micro" then run_micro ()
          else
            match Simq_experiments.Experiments.run ~fast name with
            | Ok () -> ()
            | Error msg ->
              prerr_endline msg;
              exit 1)
        names;
      dump_obs ())
