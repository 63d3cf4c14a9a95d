(* simq: command-line front end.

     simq generate --kind stock --count 1067 --length 128 -o market.rel
     simq info market.rel
     simq query market.rel "RANGE FROM r USING mavg(20) QUERY s0 EPS 2.5"
     simq experiments table1 --fast

   Query series are named [sN]: the relation's N-th series, optionally
   perturbed with --noise; warp(m) queries are expanded to the required
   length automatically. *)

open Cmdliner
module Relation = Simq_storage.Relation
module Budget = Simq_fault.Budget
module Otrace = Simq_obs.Trace
module Profile = Simq_obs.Profile
module Qlog = Simq_obs.Qlog
module Engine = Simq_serve.Engine
open Simq_tsindex

(* User-facing failures (Simq_cli.error): one line on stderr, a
   distinct exit code — 1 usage / bad arguments, 2 unreadable or
   corrupt files, 3 malformed CSV, 4 budget or fault errors from a
   checked query, 5 refused by admission control. Never a backtrace.
   The mapping and the obs-dump-on-every-exit guarantee live in
   Simq_cli so they are unit testable. *)
open Simq_cli

let ( let* ) r f = Result.bind r f
let usage msg = Error (Usage msg)

let load_relation file =
  if not (Sys.file_exists file) then
    Error (File (Printf.sprintf "no such file: %s" file))
  else
    match Relation.load file with
    | relation -> Ok relation
    | exception (Relation.Invalid_file msg | Sys_error msg) -> Error (File msg)

(* --- parallelism --------------------------------------------------------- *)

let apply_jobs = function
  | None -> ()
  | Some domains -> Simq_parallel.Pool.set_default_domains domains

(* --- observability -------------------------------------------------------- *)

let profile_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Record a per-query EXPLAIN ANALYZE operator tree — wall time, \
           rows, pages, candidates and survivors, early-abandon hits, \
           retry and degradation events per operator — and dump it when \
           the command finishes: to stdout, or to $(docv) when one is \
           given (a $(b,.json) suffix selects the JSON export over the \
           indented text tree).")

let qlog_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "qlog" ] ~docv:"FILE"
        ~doc:
          "Append one self-describing JSON line per executed query to \
           $(docv): spec and digest, admission decision, access path, \
           per-family counter deltas, duration, outcome with its exit \
           code, and domain count. Aggregate offline with \
           $(b,simq qlog-top).")

let qlog_sample_arg =
  Arg.(
    value
    & opt Simq_cli.positive_int 1
    & info [ "qlog-sample" ] ~docv:"N"
        ~doc:
          "Keep 1 in $(docv) query-log lines, keyed off the query \
           sequence number so reruns of a fixed workload log the same \
           queries. Default: keep everything.")

let qlog_slow_ms_arg =
  Arg.(
    value
    & opt (some Simq_cli.finite_float) None
    & info [ "qlog-slow-ms" ] ~docv:"MS"
        ~doc:
          "Always log queries that take at least $(docv) milliseconds, \
           regardless of $(b,--qlog-sample).")

let qlog_max_bytes_arg =
  Arg.(
    value
    & opt (some Simq_cli.positive_int) None
    & info [ "qlog-max-bytes" ] ~docv:"BYTES"
        ~doc:
          "Rotate the $(b,--qlog) file by size: after a write that takes \
           it to $(docv) bytes or beyond it is renamed to $(i,FILE).1 \
           (replacing any previous rotation) and a fresh file is started, \
           so long runs cannot grow the log unboundedly. Sequence numbers \
           keep counting across rotations.")

let make_qlog ~sample ~slow_ms ~max_bytes = function
  | None -> Ok None
  | Some path -> (
    match Qlog.create ~sample ?slow_ms ?max_bytes path with
    | t -> Ok (Some t)
    | exception Sys_error msg -> Error (File msg)
    | exception Invalid_argument msg -> Error (Usage msg))

(* --- generate ------------------------------------------------------------ *)

let generate kind count length seed out jobs =
  apply_jobs jobs;
  let batch =
    match kind with
    | `Walk -> Simq_series.Generator.random_walks ~seed ~count ~n:length
    | `Stock -> Simq_workload.Stocklike.batch ~seed ~count ~n:length
  in
  let relation = Relation.of_series ~name:(Filename.remove_extension (Filename.basename out)) batch in
  match Relation.save relation out with
  | () ->
    Printf.printf "wrote %d %s series of length %d to %s\n" count
      (match kind with `Walk -> "random-walk" | `Stock -> "stock-like")
      length out;
    Ok ()
  | exception Sys_error msg -> Error (File msg)

let kind_arg =
  let kinds = [ ("walk", `Walk); ("stock", `Stock) ] in
  Arg.(value & opt (enum kinds) `Stock & info [ "kind" ] ~doc:"Data kind: $(b,walk) (the paper's synthetic sequences) or $(b,stock) (regime-switching stock-like prices).")

let count_arg =
  Arg.(value & opt int 1067 & info [ "count" ] ~doc:"Number of series.")

let length_arg =
  Arg.(value & opt int 128 & info [ "length" ] ~doc:"Length of each series.")

let seed_arg = Arg.(value & opt int 1995 & info [ "seed" ] ~doc:"PRNG seed.")

let out_arg =
  Arg.(value & opt string "market.rel" & info [ "o"; "output" ] ~doc:"Output file.")

(* --- info ------------------------------------------------------------------ *)

let info_cmd_impl file =
  let* relation = load_relation file in
  Printf.printf "relation %s: %d series, %d logical pages\n"
    (Relation.name relation)
    (Relation.cardinality relation)
    (Relation.pages relation);
  if Relation.cardinality relation > 0 then
    Printf.printf "series length: %d\n" (Relation.length relation);
  Ok ()

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Relation file written by $(b,simq generate).")

(* --- query ------------------------------------------------------------------ *)

(* --approx implies --sketch (the funnel is what gets relaxed); its
   value is range-checked here so every entry point rejects the same
   way. *)
let sketch_config ~sketch ~approx =
  match approx with
  | Some a when a < 0. || a >= 1. -> usage "--approx must be in [0, 1)"
  | Some _ -> Ok (Some Simq_sketch.default)
  | None -> Ok (if sketch then Some Simq_sketch.default else None)

(* The set-up simq query and simq serve share: check the budget and
   sketch flags, load the relation, open its index (from the prepared
   image when it is valid), and hand [k] the engine every query runs
   through — inside the [span] trace span. [faults] rides in the
   engine's budget. *)
let with_engine ?faults ~span ~file ~noise ~shards ~admission ~sketch ~approx
    ~deadline ~max_page_reads ~max_comparisons ~max_node_accesses k =
  let* budget =
    match
      Budget.create ?deadline_s:deadline ?max_page_reads ?max_comparisons
        ?max_node_accesses ?faults ()
    with
    | budget -> Ok budget
    | exception Invalid_argument msg -> usage msg
  in
  let* sketch = sketch_config ~sketch ~approx in
  let* relation = load_relation file in
  Otrace.with_span span @@ fun () ->
  let index = Kindex.open_file ~relation file in
  let admission = if admission then Some Simq_admission.default else None in
  k
    (Engine.create ~noise ~budget ?admission ?shards ?sketch
       ?approx index)

(* The one-shot report, rendered from the engine's record and answer:
   one header line in the same shape for every query class, then one
   row per answer — [name distance d] for RANGE/NEAREST, [a ~ b] for
   PAIRS. *)
let print_outcome engine (note : Engine.note) (o : Engine.outcome) =
  let module J = Simq_obs.Json in
  let shards =
    match (Engine.sharded engine, note.Engine.note_shards) with
    | Some sharded, Some c ->
      Printf.sprintf ", %d shards: fanout %d, pruned %d, degraded %d"
        (Simq_shard.shards sharded) c.Qlog.fanout c.Qlog.pruned
        c.Qlog.degraded
    | _ -> ""
  in
  Printf.printf "%d answers (path %s%s%s%s, %s)\n" o.Engine.answers
    (Option.value note.Engine.note_path ~default:"index")
    shards
    (match note.Engine.note_decision with
    | Some d -> ", admission: " ^ d
    | None -> "")
    (if o.Engine.partial then ", partial" else "")
    (Format.asprintf "%a" Simq_report.Timer.pp_seconds
       note.Engine.note_duration_s);
  List.iter
    (fun row ->
      match (J.member "name" row, J.member "distance" row) with
      | Some (J.Str name), Some (J.Num d) ->
        Printf.printf "  %-12s distance %.4f\n" name d
      | _ -> (
        match (J.member "a" row, J.member "b" row) with
        | Some (J.Str a), Some (J.Str b) -> Printf.printf "  %s ~ %s\n" a b
        | _ -> ()))
    (Option.value (J.arr o.Engine.results) ~default:[])

let query_impl file text noise shards jobs metrics trace metrics_port
    metrics_state profile qlog qlog_sample qlog_slow_ms qlog_max_bytes
    admission sketch approx deadline max_page_reads max_comparisons
    max_node_accesses =
  apply_jobs jobs;
  (* One CLI invocation is one request: the id correlates the profile
     root, the qlog line and every trace span of this query. *)
  let request = Otrace.new_request_id () in
  let profile = Option.map (fun dest -> (Profile.create (), dest)) profile in
  Option.iter (fun (p, _) -> Profile.set_trace p request) profile;
  let* qlog =
    make_qlog ~sample:qlog_sample ~slow_ms:qlog_slow_ms
      ~max_bytes:qlog_max_bytes qlog
  in
  (* Every failure below this point — usage errors, bad budgets,
     budget exhaustion, admission rejections — still dumps the
     requested metrics/trace/profile/state files on the way out. *)
  Simq_cli.with_obs
    ?metrics_port:(Simq_cli.resolve_metrics_port metrics_port)
    ?metrics_state ?profile ?qlog ~metrics ~trace (fun () ->
      Otrace.with_request request @@ fun () ->
      (* A malformed query is refused before the relation is loaded. *)
      let* () = Engine.parse_checked ~qlog text in
      with_engine ~span:"query" ~file ~noise ~shards ~admission ~sketch
        ~approx ~deadline ~max_page_reads ~max_comparisons ~max_node_accesses
      @@ fun engine ->
      let note = Engine.note () in
      let result =
        Otrace.with_span "execute" (fun () ->
            Engine.exec ?qlog ?profile:(Option.map fst profile) ~note
              engine text)
      in
      Simq_report.Timer.observe note.Engine.note_duration_s;
      let* outcome = result in
      print_outcome engine note outcome;
      Ok ())

let ql_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY"
         ~doc:"Similarity query, e.g. 'RANGE FROM r USING mavg(20) QUERY s0 EPS 2.5'.")

let noise_arg =
  Arg.(value & opt Simq_cli.finite_float 0. & info [ "noise" ]
         ~doc:"Perturb the query series by this amount (uniform noise).")

let shards_arg =
  Arg.(
    value
    & opt (some Simq_cli.positive_int) None
    & info [ "shards" ] ~docv:"K"
        ~doc:
          "Partition the relation into $(docv) shards and answer RANGE \
           and NEAREST queries by scatter-gather: per-shard catalogue \
           boxes prune shards that cannot contribute before any of their \
           pages is read, survivors fan out across the domain pool, and \
           the per-shard answers merge deterministically — bit-identical \
           to the unsharded run.")

let deadline_arg =
  Arg.(value & opt (some Simq_cli.finite_float) None
       & info [ "deadline" ] ~docv:"SECONDS"
           ~doc:"Per-query wall-clock deadline; exceeding it fails the query \
                 with a timeout error (exit code 4).")

let max_page_reads_arg =
  Arg.(value & opt (some int) None
       & info [ "max-page-reads" ] ~docv:"N"
           ~doc:"Per-query budget of logical page reads.")

let max_comparisons_arg =
  Arg.(value & opt (some int) None
       & info [ "max-comparisons" ] ~docv:"N"
           ~doc:"Per-query budget of distance comparisons.")

let max_node_accesses_arg =
  Arg.(value & opt (some int) None
       & info [ "max-node-accesses" ] ~docv:"N"
           ~doc:"Per-query budget of R-tree node accesses; a RANGE query \
                 that exhausts it degrades to a sequential scan.")

let admission_arg =
  Arg.(value & flag
       & info [ "admission" ]
           ~doc:"Vet budgeted RANGE and NEAREST queries with cost-based \
                 admission \
                 control before execution: collect planner statistics, \
                 predict each path's cost from them and the live metrics \
                 registry, and degrade or reject (exit code 5) queries \
                 predicted to exceed the budget — before any page is read.")

let sketch_arg =
  Arg.(value & flag
       & info [ "sketch" ]
           ~doc:"Funnel RANGE and NEAREST candidates through the \
                 multi-resolution sketch ladder — a coarse DFT sketch, \
                 then (identity queries) a piecewise-constant segment \
                 sketch — before any exact distance is computed. Every \
                 level lower-bounds the true distance, so the answers are \
                 bit-identical to a run without $(b,--sketch); only the \
                 exact-comparison work drops. Implied by $(b,--approx).")

let approx_arg =
  Arg.(value & opt (some Simq_cli.finite_float) None
       & info [ "approx" ] ~docv:"A"
           ~doc:"Answer RANGE queries approximately: sketch levels dismiss \
                 at the tightened cutoff (1-$(docv))·EPS, so every returned \
                 answer is a true answer within EPS and every series within \
                 (1-$(docv))·EPS is still guaranteed returned ($(docv) in \
                 [0, 1); implies $(b,--sketch)). Under a budget the \
                 verification loop turns progressive: when the budget dies \
                 mid-verification the query returns the sound subset \
                 verified so far (marked 'partial') instead of degrading.")

(* --- batch ----------------------------------------------------------------- *)

(* Query lines from a specs file ("-" reads stdin); blank lines and
   #-comments are skipped. *)
let read_spec_lines source =
  let read_all ic =
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    List.rev !lines
  in
  let* raw =
    if source = "-" then Ok (read_all stdin)
    else if not (Sys.file_exists source) then
      Error (File (Printf.sprintf "no such file: %s" source))
    else begin
      let ic = open_in source in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (read_all ic))
    end
  in
  Ok
    (List.filter_map
       (fun line ->
         let t = String.trim line in
         if t = "" || t.[0] = '#' then None else Some t)
       raw)

(* The qlog-replay seam: the specs of a sampled query log become the
   batch workload. A size-rotated pair replays in stream order —
   FILE.1 (the older rotation) before FILE. Non-qlog JSON lines (and
   malformed ones) are skipped, so any --qlog file replays as
   written. *)
let read_qlog_specs file =
  match Qlog.rotated_chain file with
  | [] -> Error (File (Printf.sprintf "no such file: %s" file))
  | files ->
    let specs = ref [] in
    List.iter
      (fun file ->
        let ic = open_in file in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            try
              while true do
                let line = input_line ic in
                if String.trim line <> "" then
                  match Simq_obs.Json.parse line with
                  | Ok json -> (
                    match
                      ( Simq_obs.Json.member "event" json,
                        Simq_obs.Json.member "spec" json )
                    with
                    | Some (Simq_obs.Json.Str "simq.qlog"),
                      Some (Simq_obs.Json.Str spec) ->
                      specs := spec :: !specs
                    | _ -> ())
                  | Error _ -> ()
              done
            with End_of_file -> ()))
      files;
    Ok (List.rev !specs)

(* Per-query profile trees, dumped together: the text form labels each
   tree with its sequence number and spec, the .json form wraps them in
   one self-describing simq.batch-profile object. *)
let dump_batch_profiles ~dest ~texts profiles =
  let module J = Simq_obs.Json in
  let write oc =
    if Filename.check_suffix dest ".json" then begin
      let queries =
        Array.to_list
          (Array.mapi
             (fun i p ->
               J.Obj
                 [
                   ("seq", J.Num (float_of_int i));
                   ("spec", J.Str texts.(i));
                   ("profile", Profile.to_json p);
                 ])
             profiles)
      in
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("event", J.Str "simq.batch-profile");
                ("v", J.Num 1.);
                ("queries", J.Arr queries);
              ]));
      output_char oc '\n'
    end
    else
      Array.iteri
        (fun i p ->
          Printf.fprintf oc "-- query #%d: %s\n%s" i texts.(i)
            (Profile.render p))
        profiles
  in
  if dest = "-" then begin
    write stdout;
    flush stdout;
    Ok ()
  end
  else
    match open_out dest with
    | oc ->
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc);
      Ok ()
    | exception Sys_error msg -> Error (File msg)

let batch_impl file specs from_qlog output noise shards sketch approx jobs
    metrics trace metrics_port metrics_state profile qlog qlog_sample
    qlog_slow_ms qlog_max_bytes =
  apply_jobs jobs;
  let* sketch_cfg = sketch_config ~sketch ~approx in
  let* texts =
    match (specs, from_qlog) with
    | Some _, Some _ -> usage "pass either SPECS or --from-qlog, not both"
    | Some source, None -> read_spec_lines source
    | None, Some log -> read_qlog_specs log
    | None, None ->
      usage "pass a SPECS file (\"-\" reads stdin) or --from-qlog FILE"
  in
  let* qlog =
    make_qlog ~sample:qlog_sample ~slow_ms:qlog_slow_ms
      ~max_bytes:qlog_max_bytes qlog
  in
  Simq_cli.with_obs
    ?metrics_port:(Simq_cli.resolve_metrics_port metrics_port)
    ?metrics_state ?qlog ~metrics ~trace (fun () ->
      let* relation = load_relation file in
      let* out =
        match output with
        | None -> Ok None
        | Some path -> (
          match open_out path with
          | oc -> Ok (Some oc)
          | exception Sys_error msg -> Error (File msg))
      in
      Fun.protect
        ~finally:(fun () ->
          match out with Some oc -> close_out_noerr oc | None -> flush stdout)
        (fun () ->
          Otrace.with_span "batch" @@ fun () ->
          let engine =
            Engine.create ~noise ?shards ?sketch:sketch_cfg ?approx
              (Kindex.open_file ~relation file)
          in
          let texts = Array.of_list texts in
          let n = Array.length texts in
          let profiles =
            Option.map
              (fun _ -> Array.init n (fun _ -> Profile.create ()))
              profile
          in
          (* A failed query becomes its own error line; the rest of the
             batch still runs, and the command still exits 0 — this is
             the serving path, not a transaction. *)
          let results = Engine.batch ?profiles ?qlog engine texts in
          let oc = Option.value out ~default:stdout in
          let ok_count = ref 0 in
          Array.iteri
            (fun seq (note, r) ->
              if Result.is_ok r then incr ok_count;
              output_string oc
                (Simq_serve.Protocol.result_line ~event:"simq.batch" ~seq
                   ~digest:(Engine.note_digest note) note
                   (Result.map_error Simq_cli.message r));
              output_char oc '\n')
            results;
          flush oc;
          let* () =
            match (profile, profiles) with
            | Some dest, Some profiles ->
              dump_batch_profiles ~dest ~texts profiles
            | _ -> Ok ()
          in
          Printf.eprintf "simq: batch: %d queries (%d ok, %d failed), %d domains\n%!"
            n !ok_count (n - !ok_count)
            (Simq_parallel.Pool.domains (Simq_parallel.Pool.default ()));
          Ok ()))

let specs_arg =
  Arg.(
    value
    & pos 1 (some string) None
    & info [] ~docv:"SPECS"
        ~doc:
          "File of query specs, one query per line ($(b,-) reads stdin); \
           blank lines and $(b,#)-comments are skipped. Exactly one of \
           $(i,SPECS) and $(b,--from-qlog) must be given.")

let from_qlog_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "from-qlog" ] ~docv:"FILE"
        ~doc:
          "Replay the specs of a $(b,--qlog) query log as the batch \
           workload: every $(b,simq.qlog) line's spec is re-executed, in \
           log order. Lines of other event types are skipped.")

let batch_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the JSON result lines to $(docv) instead of stdout.")

(* --- import / export ------------------------------------------------------------ *)

let import_impl csv out =
  if not (Sys.file_exists csv) then
    Error (File (Printf.sprintf "no such file: %s" csv))
  else
    match
      Simq_storage.Csv.import
        ~name:(Filename.remove_extension (Filename.basename out))
        csv
    with
    | relation -> (
      match Relation.save relation out with
      | () ->
        Printf.printf "imported %d series into %s\n"
          (Relation.cardinality relation)
          out;
        Ok ()
      | exception Sys_error msg -> Error (File msg))
    | exception Failure msg -> Error (Csv_error msg)
    | exception Sys_error msg -> Error (File msg)

let export_impl file out =
  let* relation = load_relation file in
  match Simq_storage.Csv.export relation out with
  | () ->
    Printf.printf "exported %d series to %s\n"
      (Relation.cardinality relation)
      out;
    Ok ()
  | exception Sys_error msg -> Error (File msg)
  | exception Failure msg -> Error (Csv_error msg)

(* --- experiments -------------------------------------------------------------- *)

let experiments_impl name fast jobs metrics trace metrics_port metrics_state =
  apply_jobs jobs;
  Simq_cli.with_obs
    ?metrics_port:(Simq_cli.resolve_metrics_port metrics_port)
    ?metrics_state ~metrics ~trace (fun () ->
      Result.map_error (fun msg -> Usage msg)
        (Simq_experiments.Experiments.run ~fast name))

(* --- scrape ---------------------------------------------------------------- *)

let scrape_impl host port timeout_ms =
  Simq_cli.scrape ?timeout_ms ~host ~port ()

(* --- serve / stress --------------------------------------------------------- *)

let ms_to_s ms = float_of_int ms /. 1000.

(* The chaos seam: a seeded transient-fault injector carried by the
   engine's budget, so every attempt of every query the daemon serves
   consults it at each guarded access, on every shard. *)
let make_injector ~seed ~page_prob ~node_prob =
  if page_prob <= 0. && node_prob <= 0. then Ok None
  else
    let site prob =
      if prob > 0. then
        Some (Simq_fault.Injector.transient ~probability:prob ())
      else None
    in
    match
      Simq_fault.Injector.create ?page_reads:(site page_prob)
        ?node_accesses:(site node_prob) ~seed ()
    with
    | injector -> Ok (Some injector)
    | exception Invalid_argument msg -> usage msg

let serve_impl file port max_inflight slow_k idle_timeout_ms write_timeout_ms
    noise shards jobs metrics trace metrics_port metrics_state qlog qlog_sample
    qlog_slow_ms qlog_max_bytes admission sketch approx deadline
    max_page_reads max_comparisons max_node_accesses fault_seed
    fault_page_prob fault_node_prob =
  apply_jobs jobs;
  let* qlog =
    make_qlog ~sample:qlog_sample ~slow_ms:qlog_slow_ms
      ~max_bytes:qlog_max_bytes qlog
  in
  let* faults =
    make_injector ~seed:fault_seed ~page_prob:fault_page_prob
      ~node_prob:fault_node_prob
  in
  (* The drain dumps metrics/qlog/state exactly like a one-shot
     command: with_obs closes the seams on every exit path, after the
     last worker has finished. *)
  Simq_cli.with_obs
    ?metrics_port:(Simq_cli.resolve_metrics_port metrics_port)
    ?metrics_state ?qlog ~metrics ~trace (fun () ->
      with_engine ?faults ~span:"serve" ~file ~noise ~shards ~admission
        ~sketch ~approx ~deadline ~max_page_reads ~max_comparisons
        ~max_node_accesses
      @@ fun engine ->
      let* server =
        match
          Simq_serve.Server.start ?max_inflight ?slow_k
            ?idle_timeout:(Option.map ms_to_s idle_timeout_ms)
            ?write_timeout:(Option.map ms_to_s write_timeout_ms)
            ?qlog ~engine ~port ()
        with
        | s -> Ok s
        | exception Unix.Unix_error (e, _, _) ->
          Error
            (Usage
               (Printf.sprintf "cannot bind 127.0.0.1:%d: %s" port
                  (Unix.error_message e)))
        | exception Invalid_argument msg -> Error (Usage msg)
      in
      Printf.eprintf "simq: serving queries on 127.0.0.1:%d\n%!"
        (Simq_serve.Server.port server);
      (* SIGTERM/SIGINT begin the same graceful drain as the
         in-band shutdown command. *)
      let drain _ = Simq_serve.Server.request_drain server in
      let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle drain) in
      let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle drain) in
      Fun.protect
        ~finally:(fun () ->
          Sys.set_signal Sys.sigterm prev_term;
          Sys.set_signal Sys.sigint prev_int;
          Simq_serve.Server.stop server)
        (fun () -> Simq_serve.Server.wait server);
      let {
        Simq_serve.Server.served;
        shed;
        errors;
        connections;
        _;
      } =
        Simq_serve.Server.stats server
      in
      Printf.eprintf
        "simq: serve: drained — %d connections, %d queries served, %d \
         shed, %d errors\n\
         %!"
        connections served shed errors;
      Ok ())

let stress_impl file host port clients per_client seed chaos verify slow
    shutdown timeout_ms noise jobs =
  apply_jobs jobs;
  let* port =
    match port with
    | Some p -> Ok p
    | None -> usage "pass --port PORT of a running simq serve"
  in
  let* relation = load_relation file in
  let cardinality = Relation.cardinality relation in
  if cardinality = 0 then usage "relation is empty"
  else begin
    let* oracle =
      if not verify then Ok None
      else begin
        (* The offline oracle: the same engine the daemon runs, minus
           budget and admission — every served answer an admitted or
           degraded query returns must be bit-identical to it. *)
        let engine = Engine.create ~noise (Kindex.open_file ~relation file) in
        Ok
          (Some
             (fun spec ->
               match Engine.exec engine spec with
               | Ok o -> Some o.Engine.results
               | Error _ -> None))
      end
    in
    let report =
      Simq_serve.Stress.run ~chaos
        ?timeout:(Option.map ms_to_s timeout_ms)
        ?oracle ~host ~port ~clients ~per_client
        ~seed:(Simq_experiments.Bench_util.derived_seed seed)
        ~cardinality ()
    in
    Printf.printf
      "stress: %d clients x %d queries: %d sent, %d ok, %d rejected, %d \
       failed, %d protocol errors\n"
      clients per_client report.Simq_serve.Stress.sent
      report.Simq_serve.Stress.ok report.Simq_serve.Stress.rejected
      report.Simq_serve.Stress.failed
      report.Simq_serve.Stress.protocol_errors;
    if chaos then
      Printf.printf "chaos: %d malformed lines, %d mid-query disconnects\n"
        report.Simq_serve.Stress.malformed_sent
        report.Simq_serve.Stress.disconnects;
    let lat = report.Simq_serve.Stress.latencies_s in
    if Array.length lat > 0 then
      Printf.printf "latency ms: p50 %.2f  p90 %.2f  p99 %.2f\n"
        (Simq_serve.Stress.quantile lat 0.5 *. 1000.)
        (Simq_serve.Stress.quantile lat 0.9 *. 1000.)
        (Simq_serve.Stress.quantile lat 0.99 *. 1000.);
    List.iter
      (fun (spec, detail) ->
        Printf.printf "MISMATCH %s: %s\n" spec detail)
      report.Simq_serve.Stress.mismatches;
    let* () =
      if not slow then Ok ()
      else
        match
          Simq_serve.Stress.Client.connect
            ?timeout:(Option.map ms_to_s timeout_ms)
            ~host ~port ()
        with
        | client ->
          Fun.protect
            ~finally:(fun () -> Simq_serve.Stress.Client.close client)
            (fun () ->
              Simq_serve.Stress.Client.send_line client "slow";
              match Simq_serve.Stress.Client.recv_line client with
              | Some line ->
                print_endline line;
                Ok ()
              | None -> usage "stress: no response to the slow command")
        | exception Unix.Unix_error _ ->
          usage "stress: could not connect for the slow command"
    in
    if shutdown then
      (match
         Simq_serve.Stress.Client.connect
           ?timeout:(Option.map ms_to_s timeout_ms)
           ~host ~port ()
       with
      | client ->
        Fun.protect
          ~finally:(fun () -> Simq_serve.Stress.Client.close client)
          (fun () ->
            Simq_serve.Stress.Client.send_line client "shutdown";
            ignore (Simq_serve.Stress.Client.recv_line client))
      | exception Unix.Unix_error _ -> ());
    if report.Simq_serve.Stress.server_gone then
      usage "stress: the daemon died (or refused connections) mid-run"
    else if report.Simq_serve.Stress.protocol_errors > 0 then
      usage "stress: protocol violations observed"
    else if report.Simq_serve.Stress.mismatches <> [] then
      usage "stress: served answers differ from the offline oracle"
    else Ok ()
  end

(* --- top -------------------------------------------------------------------- *)

(* One formatted refresh of the windowed-rate view. The document is
   what [GET /history] answered; malformed JSON is a File error (the
   peer is not a simq history endpoint), absent fields render as 0 so
   an older daemon still produces a readable frame. *)
let render_history body =
  let module J = Simq_obs.Json in
  match J.parse body with
  | Error msg ->
    Error (File (Printf.sprintf "top: malformed history document: %s" msg))
  | Ok json ->
    let num name v =
      Option.value (Option.bind (J.member name v) J.number) ~default:0.
    in
    let samples = num "samples" json in
    (match J.member "window" json with
    | None | Some J.Null ->
      Printf.printf
        "history: %.0f sample(s) — window needs two; try again in one \
         interval\n\
         %!"
        samples;
      Ok ()
    | Some w ->
      let obj name =
        Option.value (J.member name w) ~default:(J.Obj [])
      in
      let shard = obj "shard" in
      let sketch = obj "sketch" in
      let latency = obj "latency" in
      Printf.printf
        "qps %8.1f   shed %5.1f%%   (%.0f queries, %.0f shed in %.2f s; \
         %.0f samples)\n"
        (num "qps" w)
        (num "shed_rate" w *. 100.)
        (num "queries" w) (num "shed" w) (num "dt_s" w) samples;
      Printf.printf "latency ms: p50 %.2f  p99 %.2f  (%.0f observations)\n"
        (num "p50_ms" latency) (num "p99_ms" latency) (num "count" latency);
      Printf.printf "shards: %.0f executed, %.0f pruned (prune rate %.1f%%)\n"
        (num "fanout" shard) (num "pruned" shard)
        (num "prune_rate" shard *. 100.);
      let filtered =
        match J.member "filtered" sketch with
        | Some (J.Obj kvs) ->
          String.concat ""
            (List.map
               (fun (level, v) ->
                 Printf.sprintf "%s %.0f, " level
                   (Option.value (J.number v) ~default:0.))
               kvs)
        | _ -> ""
      in
      Printf.printf "sketch: %sfilter rate %.1f%%\n%!" filtered
        (num "filter_rate" sketch *. 100.);
      Ok ())

let top_impl host port once interval_ms iterations timeout_ms =
  match Simq_cli.resolve_metrics_port port with
  | None ->
    usage "top: no port given (use --port or set SIMQ_METRICS_PORT)"
  | Some port ->
    let fetch () =
      match
        Simq_obs.Serve.scrape ~host
          ?timeout:(Option.map ms_to_s timeout_ms)
          ~path:"/history" ~port ()
      with
      | body -> Ok body
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Error
          (File
             (Printf.sprintf "top http://%s:%d/history: timed out after %d ms"
                host port
                (Option.value timeout_ms ~default:0)))
      | exception Unix.Unix_error (err, _, _) ->
        Error
          (File
             (Printf.sprintf "top http://%s:%d/history: %s" host port
                (Unix.error_message err)))
      | exception Failure msg ->
        Error
          (File (Printf.sprintf "top http://%s:%d/history: %s" host port msg))
    in
    if once then
      let* body = fetch () in
      (* The raw JSON document, one line, machine-readable — the body
         already carries its newline. *)
      print_string body;
      Ok ()
    else begin
      let rec loop i =
        let* body = fetch () in
        let* () = render_history body in
        if i + 1 >= iterations then Ok ()
        else begin
          print_newline ();
          Unix.sleepf (ms_to_s interval_ms);
          loop (i + 1)
        end
      in
      loop 0
    end

let serve_port_arg =
  Arg.(
    value
    & opt int 0
    & info [ "port" ] ~docv:"PORT"
        ~doc:
          "Port to serve on (127.0.0.1 only). $(b,0) — the default — \
           picks an ephemeral port, printed on stderr.")

let max_inflight_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:
          "Server-wide cap on queries executing or queued at once: a \
           request arriving while $(docv) are in flight is refused with \
           a typed rejection (exit-5 taxonomy, counted in the admission \
           decision metrics) before any page is read.")

let slow_k_arg =
  Arg.(
    value
    & opt (some Simq_cli.positive_int) None
    & info [ "slow-k" ] ~docv:"K"
        ~doc:
          "Keep the $(docv) slowest queries (spec, trace id, rendered \
           operator tree) in a bounded in-memory exemplar store, served \
           by the in-band $(b,slow) protocol command.")

let idle_timeout_arg =
  Arg.(
    value
    & opt (some Simq_cli.positive_int) None
    & info [ "idle-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Reap connections that send nothing for $(docv) milliseconds.")

let write_timeout_arg =
  Arg.(
    value
    & opt (some Simq_cli.positive_int) None
    & info [ "write-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Give up writing a response after $(docv) milliseconds — a \
           client that stops reading loses its connection instead of \
           wedging a worker.")

let fault_seed_arg =
  Arg.(
    value
    & opt int 1995
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"PRNG seed for the chaos fault injector.")

let fault_page_prob_arg =
  Arg.(
    value
    & opt Simq_cli.finite_float 0.
    & info [ "fault-page-prob" ] ~docv:"P"
        ~doc:
          "Inject a transient fault on each logical page read with \
           probability $(docv) (chaos testing; queries retry and \
           degrade, and answer with a typed fault line only when the \
           degraded path fails too).")

let fault_node_prob_arg =
  Arg.(
    value
    & opt Simq_cli.finite_float 0.
    & info [ "fault-node-prob" ] ~docv:"P"
        ~doc:
          "Inject a transient fault on each R*-tree node access with \
           probability $(docv).")

let stress_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Port of the running $(b,simq serve) daemon.")

let clients_arg =
  Arg.(
    value
    & opt Simq_cli.positive_int 4
    & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client connections.")

let per_client_arg =
  Arg.(
    value
    & opt Simq_cli.positive_int 25
    & info [ "queries" ] ~docv:"M"
        ~doc:"Queries posed per client, drawn from the mixed workload.")

let stress_seed_arg =
  Arg.(
    value
    & opt int 7
    & info [ "seed" ] ~docv:"OFFSET"
        ~doc:
          "Workload seed offset (derived from the documented bench \
           seed); the same offset always poses the same queries.")

let chaos_arg =
  Arg.(
    value
    & flag
    & info [ "chaos" ]
        ~doc:
          "Interleave protocol abuse with the workload: malformed and \
           oversized request lines, mid-query disconnects. The daemon \
           must survive all of it.")

let stress_verify_arg =
  Arg.(
    value
    & flag
    & info [ "verify" ]
        ~doc:
          "Execute every spec offline against the same relation and \
           fail (exit 1) unless each served answer set is bit-identical.")

let stress_slow_arg =
  Arg.(
    value
    & flag
    & info [ "slow" ]
        ~doc:
          "After the run, send the in-band $(b,slow) command and print \
           the daemon's worst-query document (requires $(b,--slow-k) on \
           the server).")

let stress_shutdown_arg =
  Arg.(
    value
    & flag
    & info [ "shutdown" ]
        ~doc:
          "After the run, send the in-band $(b,shutdown) command so the \
           daemon drains gracefully and dumps its observability state.")

let stress_timeout_arg =
  Arg.(
    value
    & opt (some Simq_cli.positive_int) (Some 30000)
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:"Per-operation client timeout; a wedged daemon fails the run.")

(* --- qlog-top --------------------------------------------------------------- *)

let qlog_top_impl file top by_trace =
  (* A size-rotated log is a pair: FILE.1 holds the older lines, FILE
     the newer — aggregate them in stream order. *)
  match Qlog.rotated_chain file with
  | [] -> Error (File (Printf.sprintf "no such file: %s" file))
  | files ->
    let parsed = ref [] in
    let malformed = ref 0 in
    List.iter
      (fun file ->
        let ic = open_in file in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            try
              while true do
                let line = input_line ic in
                if String.trim line <> "" then
                  match Simq_obs.Json.parse line with
                  | Ok json -> parsed := json :: !parsed
                  | Error _ -> incr malformed
              done
            with End_of_file -> ()))
      files;
    let agg = Qlog.aggregate ~top (List.rev !parsed) in
    Printf.printf "%s: %d entries%s, total %.1f ms\n" file agg.Qlog.entries
      (match files with
      | [ _ ] -> ""
      | _ -> Printf.sprintf " (with rotation %s.1)" file)
      (agg.Qlog.total_duration_s *. 1000.);
    if !malformed > 0 then
      Printf.printf "  (%d malformed lines skipped)\n" !malformed;
    let breakdown label table =
      if table <> [] then
        Printf.printf "%-12s %s\n" (label ^ ":")
          (String.concat ", "
             (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) table))
    in
    breakdown "by path" agg.Qlog.by_path;
    breakdown "by decision" agg.Qlog.by_decision;
    breakdown "by outcome" agg.Qlog.by_outcome;
    breakdown "by fanout"
      (List.map
         (fun (fanout, n) -> (Printf.sprintf "%d-shard" fanout, n))
         agg.Qlog.by_fanout);
    if by_trace && agg.Qlog.by_trace <> [] then begin
      Printf.printf "by trace:\n";
      List.iter
        (fun (trace, d) ->
          Printf.printf "  trace %-8d %10.1f ms\n" trace (d *. 1000.))
        agg.Qlog.by_trace
    end;
    if agg.Qlog.top_by_duration <> [] then begin
      Printf.printf "top by duration:\n";
      List.iter
        (fun (seq, spec, d, trace) ->
          Printf.printf "  #%-4d %-38s trace %-8d %10.1f ms\n" seq spec trace
            (d *. 1000.))
        agg.Qlog.top_by_duration
    end;
    if agg.Qlog.top_by_pages <> [] then begin
      Printf.printf "top by pages:\n";
      List.iter
        (fun (seq, spec, pages) ->
          Printf.printf "  #%-4d %-44s %7d pages\n" seq spec pages)
        agg.Qlog.top_by_pages
    end;
    Ok ()

let experiment_arg =
  Arg.(value & pos 0 string "all" & info [] ~docv:"NAME"
         ~doc:"Experiment: fig8..fig12, table1, edit_dp, eq10, vptree, \
               ablation_k, ablation_repr, ablation_rtree, ablation_trails \
               or all.")

let fast_arg =
  Arg.(value & flag & info [ "fast" ] ~doc:"Smaller data sizes (seconds instead of minutes).")

(* --- command wiring ------------------------------------------------------------- *)

let handle = Simq_cli.handle

let generate_cmd =
  let doc = "generate a relation of synthetic series" in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(
      const (fun kind count length seed out jobs ->
          handle (generate kind count length seed out jobs))
      $ kind_arg $ count_arg $ length_arg $ seed_arg $ out_arg $ jobs_arg)

let info_cmd =
  let doc = "describe a stored relation" in
  Cmd.v (Cmd.info "info" ~doc)
    Term.(const (fun file -> handle (info_cmd_impl file)) $ file_arg)

let query_cmd =
  let doc = "run a similarity query against a stored relation" in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const (fun file text noise shards jobs metrics trace metrics_port
                 metrics_state profile qlog qlog_sample qlog_slow_ms
                 qlog_max_bytes admission sketch approx deadline pages
                 comparisons nodes ->
          handle
            (query_impl file text noise shards jobs metrics trace metrics_port
               metrics_state profile qlog qlog_sample qlog_slow_ms
               qlog_max_bytes admission sketch approx deadline pages
               comparisons nodes))
      $ file_arg $ ql_arg $ noise_arg $ shards_arg $ jobs_arg $ metrics_arg
      $ trace_arg
      $ metrics_port_arg $ metrics_state_arg $ profile_arg $ qlog_arg
      $ qlog_sample_arg $ qlog_slow_ms_arg $ qlog_max_bytes_arg
      $ admission_arg $ sketch_arg $ approx_arg $ deadline_arg
      $ max_page_reads_arg $ max_comparisons_arg $ max_node_accesses_arg)

let batch_cmd =
  let doc =
    "run a whole file of similarity queries as one batch over a resident \
     index"
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const (fun file specs from_qlog output noise shards sketch approx jobs
                 metrics trace metrics_port metrics_state profile qlog
                 qlog_sample qlog_slow_ms qlog_max_bytes ->
          handle
            (batch_impl file specs from_qlog output noise shards sketch approx
               jobs metrics trace metrics_port metrics_state profile qlog
               qlog_sample qlog_slow_ms qlog_max_bytes))
      $ file_arg $ specs_arg $ from_qlog_arg $ batch_out_arg $ noise_arg
      $ shards_arg $ sketch_arg $ approx_arg $ jobs_arg $ metrics_arg
      $ trace_arg $ metrics_port_arg
      $ metrics_state_arg $ profile_arg $ qlog_arg $ qlog_sample_arg
      $ qlog_slow_ms_arg $ qlog_max_bytes_arg)

let import_cmd =
  let doc = "import a CSV file (one series per row: name,v1,v2,...)" in
  Cmd.v (Cmd.info "import" ~doc)
    Term.(
      const (fun csv out -> handle (import_impl csv out))
      $ Arg.(required & pos 0 (some string) None
             & info [] ~docv:"CSV" ~doc:"CSV file to import.")
      $ out_arg)

let export_cmd =
  let doc = "export a stored relation to CSV" in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(
      const (fun file out -> handle (export_impl file out))
      $ file_arg
      $ Arg.(value & opt string "market.csv"
             & info [ "o"; "output" ] ~doc:"Output CSV file."))

let experiments_cmd =
  let doc = "reproduce the paper's experiments" in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(
      const (fun name fast jobs metrics trace metrics_port metrics_state ->
          handle
            (experiments_impl name fast jobs metrics trace metrics_port
               metrics_state))
      $ experiment_arg $ fast_arg $ jobs_arg $ metrics_arg $ trace_arg
      $ metrics_port_arg $ metrics_state_arg)

let qlog_top_cmd =
  let doc = "aggregate a --qlog file: totals, breakdowns, top-k queries" in
  Cmd.v (Cmd.info "qlog-top" ~doc)
    Term.(
      const (fun file top by_trace -> handle (qlog_top_impl file top by_trace))
      $ Arg.(required & pos 0 (some string) None
             & info [] ~docv:"FILE"
                 ~doc:"Query-log file written by $(b,--qlog).")
      $ Arg.(value & opt Simq_cli.positive_int 5
             & info [ "top" ] ~docv:"K"
                 ~doc:"Entries per ranking (slowest, most pages).")
      $ Arg.(value & flag
             & info [ "by-trace" ]
                 ~doc:"Also break the log down by request trace id \
                       (summed duration, heaviest first); lines \
                       predating the $(b,trace_id) field are left \
                       out."))

let scrape_cmd =
  let doc = "fetch the exposition from a running --metrics-port server" in
  Cmd.v (Cmd.info "scrape" ~doc)
    Term.(
      const (fun host port timeout_ms -> handle (scrape_impl host port timeout_ms))
      $ Arg.(value & opt string "127.0.0.1"
             & info [ "host" ] ~docv:"HOST" ~doc:"Host to scrape.")
      $ Arg.(value & opt (some int) None
             & info [ "port" ] ~docv:"PORT"
                 ~doc:"Port of the running $(b,--metrics-port) server; \
                       defaults to $(b,SIMQ_METRICS_PORT).")
      $ Arg.(value & opt (some Simq_cli.positive_int) None
             & info [ "timeout-ms" ] ~docv:"MS"
                 ~doc:"Give up on the connect or any read after $(docv) \
                       milliseconds: a hung peer becomes the usual \
                       one-line exit-2 error instead of blocking \
                       forever."))

let top_cmd =
  let doc = "watch the windowed rates of a running --metrics-port daemon" in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(
      const (fun host port once interval_ms iterations timeout_ms ->
          handle (top_impl host port once interval_ms iterations timeout_ms))
      $ Arg.(value & opt string "127.0.0.1"
             & info [ "host" ] ~docv:"HOST" ~doc:"Host to poll.")
      $ Arg.(value & opt (some int) None
             & info [ "port" ] ~docv:"PORT"
                 ~doc:"Port of the running $(b,--metrics-port) server; \
                       defaults to $(b,SIMQ_METRICS_PORT).")
      $ Arg.(value & flag
             & info [ "once" ]
                 ~doc:"Print one raw $(b,/history) JSON document and \
                       exit — the machine-readable mode.")
      $ Arg.(value & opt Simq_cli.positive_int 1000
             & info [ "interval-ms" ] ~docv:"MS"
                 ~doc:"Delay between refreshes in text mode.")
      $ Arg.(value & opt Simq_cli.positive_int 10
             & info [ "iterations" ] ~docv:"N"
                 ~doc:"Refreshes before exiting in text mode.")
      $ Arg.(value & opt (some Simq_cli.positive_int) (Some 5000)
             & info [ "timeout-ms" ] ~docv:"MS"
                 ~doc:"Per-poll connect/read timeout; a hung peer is \
                       the usual one-line exit-2 error."))

let serve_cmd =
  let doc =
    "serve similarity queries over a line protocol from a resident index"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const (fun file port max_inflight slow_k idle_timeout_ms
                 write_timeout_ms noise shards jobs metrics trace metrics_port
                 metrics_state qlog qlog_sample qlog_slow_ms qlog_max_bytes
                 admission sketch approx deadline pages comparisons nodes
                 fault_seed fault_page_prob fault_node_prob ->
          handle
            (serve_impl file port max_inflight slow_k idle_timeout_ms
               write_timeout_ms noise shards jobs metrics trace metrics_port
               metrics_state qlog qlog_sample qlog_slow_ms qlog_max_bytes
               admission sketch approx deadline pages comparisons nodes
               fault_seed fault_page_prob fault_node_prob))
      $ file_arg $ serve_port_arg $ max_inflight_arg $ slow_k_arg
      $ idle_timeout_arg
      $ write_timeout_arg $ noise_arg $ shards_arg $ jobs_arg $ metrics_arg
      $ trace_arg
      $ metrics_port_arg $ metrics_state_arg $ qlog_arg $ qlog_sample_arg
      $ qlog_slow_ms_arg $ qlog_max_bytes_arg $ admission_arg $ sketch_arg
      $ approx_arg $ deadline_arg
      $ max_page_reads_arg $ max_comparisons_arg $ max_node_accesses_arg
      $ fault_seed_arg $ fault_page_prob_arg $ fault_node_prob_arg)

let stress_cmd =
  let doc = "stress (and optionally chaos-test) a running simq serve daemon" in
  Cmd.v (Cmd.info "stress" ~doc)
    Term.(
      const (fun file host port clients per_client seed chaos verify slow
                 shutdown timeout_ms noise jobs ->
          handle
            (stress_impl file host port clients per_client seed chaos verify
               slow shutdown timeout_ms noise jobs))
      $ file_arg
      $ Arg.(value & opt string "127.0.0.1"
             & info [ "host" ] ~docv:"HOST" ~doc:"Host of the daemon.")
      $ stress_port_arg $ clients_arg $ per_client_arg $ stress_seed_arg
      $ chaos_arg $ stress_verify_arg $ stress_slow_arg $ stress_shutdown_arg
      $ stress_timeout_arg $ noise_arg $ jobs_arg)

let () =
  let doc = "similarity-based queries on time-series data" in
  let cmd =
    Cmd.group
      (Cmd.info "simq" ~doc ~version:"1.0.0")
      [
        generate_cmd; info_cmd; query_cmd; batch_cmd; serve_cmd; stress_cmd;
        import_cmd; export_cmd; experiments_cmd; qlog_top_cmd; scrape_cmd;
        top_cmd;
      ]
  in
  exit (Cmd.eval' cmd)
