(* The benchmark harness: regenerates every figure and table of the
   evaluation (see EXPERIMENTS.md) and finishes with Bechamel
   micro-benchmarks of the core operations.

   Usage:
     dune exec bench/main.exe                 -- everything, full sizes
     dune exec bench/main.exe -- --fast       -- everything, small sizes
     dune exec bench/main.exe -- fig12        -- one experiment
     dune exec bench/main.exe -- micro        -- micro-benchmarks only
     dune exec bench/main.exe -- --jobs 4 fig10 -- one experiment, 4 domains

   The parallelism and observability flags are simq's own
   (Simq_cli.jobs_arg, metrics_arg, trace_arg, metrics_port_arg,
   metrics_state_arg), run through the same Simq_cli.with_obs: the
   exposition / Chrome trace is written once all experiments finish,
   the port serves the live exposition while the run is in flight, and
   the saved registry state is loaded before the run and rewritten
   afterwards.

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

let run_bench fast names jobs metrics trace metrics_port metrics_state =
  Option.iter Simq_parallel.Pool.set_default_domains jobs;
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
      ?metrics_port:(Simq_cli.resolve_metrics_port metrics_port)
      ?metrics_state ~metrics ~trace
      (fun () ->
        List.fold_left (fun acc name -> Result.bind acc (fun () -> run name))
          (Ok ()) names)
  with
  | Ok () -> 0
  | Error e ->
    prerr_endline ("bench: " ^ Simq_cli.message e);
    Simq_cli.exit_code e

let () =
  let open Cmdliner in
  let fast =
    Arg.(
      value & flag
      & info [ "fast" ] ~doc:"Small data sizes: the whole suite in seconds.")
  in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "Experiments to run, in order ($(b,all), one of the suite's \
             names, or $(b,micro) for the micro-benchmarks). Default: \
             $(b,all) then $(b,micro).")
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench" ~doc:"Regenerate the evaluation's figures and tables")
      Term.(
        const run_bench $ fast $ names $ Simq_cli.jobs_arg $ Simq_cli.metrics_arg
        $ Simq_cli.trace_arg $ Simq_cli.metrics_port_arg
        $ Simq_cli.metrics_state_arg)
  in
  exit (Cmd.eval' cmd)
