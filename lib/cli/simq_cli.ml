module Metrics = Simq_obs.Metrics
module Otrace = Simq_obs.Trace
module Serve = Simq_obs.Serve
module History = Simq_obs.History
module Profile = Simq_obs.Profile
module Qlog = Simq_obs.Qlog
module Json = Simq_obs.Json
module Error = Simq_fault.Error

type error =
  | Usage of string
  | File of string
  | Csv_error of string
  | Fault of Error.t

let exit_code = function
  | Usage _ -> 1
  | File _ -> 2
  | Csv_error _ -> 3
  | Fault (Error.Rejected _) -> 5
  | Fault _ -> 4

let outcome_of_error e =
  let kind =
    match e with
    | Fault f -> Error.kind f
    | Usage _ -> "usage"
    | File _ -> "file"
    | Csv_error _ -> "csv"
  in
  (kind, exit_code e)

let message = function
  | Usage msg | File msg | Csv_error msg -> msg
  | Fault e -> Error.to_string e

let handle = function
  | Ok () -> 0
  | Error err ->
    Printf.eprintf "simq: error: %s\n%!" (message err);
    exit_code err

let positive_int =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg "expected an integer >= 1")
  in
  Cmdliner.Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let port =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some p when p >= 0 && p <= 65535 -> Ok p
    | _ -> Error (`Msg "expected a port number (0-65535)")
  in
  Cmdliner.Arg.conv ~docv:"PORT" (parse, Format.pp_print_int)

(* [float_of_string_opt] accepts "nan" and "inf" (and overflowing
   literals round to infinity): every float the CLI feeds a distance or
   a deadline must be finite, or downstream comparisons silently turn
   false. *)
let finite_float =
  let parse s =
    match float_of_string_opt (String.trim s) with
    | Some f when Float.is_finite f -> Ok f
    | Some _ -> Error (`Msg "expected a finite number")
    | None -> Error (`Msg "expected a number")
  in
  Cmdliner.Arg.conv ~docv:"X" (parse, Format.pp_print_float)

(* --- the flags both binaries share ------------------------------------------- *)

let jobs_arg =
  Cmdliner.Arg.(
    value
    & opt (some positive_int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Number of domains for parallel execution (overrides the \
           $(b,SIMQ_DOMAINS) environment variable; $(b,1) runs fully \
           sequentially). Must be an integer >= 1; anything else is a \
           usage error.")

let metrics_arg =
  Cmdliner.Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Collect runtime metrics and dump a Prometheus-style text \
           exposition when the command finishes — to stdout, or to $(docv) \
           when one is given. The $(b,SIMQ_METRICS) environment variable \
           also enables collection (without the dump).")

let trace_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record execution spans and write them as Chrome trace-event JSON \
           to $(docv) when the command finishes (inspect with any trace \
           viewer: chrome://tracing, Perfetto, ...).")

let metrics_port_arg =
  Cmdliner.Arg.(
    value
    & opt (some port) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Serve the live Prometheus exposition over HTTP on \
           127.0.0.1:$(docv) for the duration of the command ($(b,0) picks \
           an ephemeral port, printed on stderr); scrape it with \
           $(b,simq scrape) or any Prometheus client. Implies metric \
           collection. The $(b,SIMQ_METRICS_PORT) environment variable \
           sets a default.")

let metrics_state_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "metrics-state" ] ~docv:"FILE"
        ~doc:
          "Persist the metrics registry across processes: load $(docv) \
           when it exists before the command runs and rewrite it \
           afterwards, so counters, gauges and histograms (among them \
           the timer histogram behind admission's deadline prediction) \
           survive restarts. Implies metric collection.")

(* Mirrors Pool.env_domains: a garbage value warns once and falls back
   to the feature being off, rather than failing the command. *)
let env_port_warned = ref None

let resolve_metrics_port explicit =
  match explicit with
  | Some _ -> explicit
  | None -> (
    match Sys.getenv_opt "SIMQ_METRICS_PORT" with
    | None -> None
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some port when port >= 0 && port <= 65535 -> Some port
      | _ ->
        if !env_port_warned <> Some s then begin
          env_port_warned := Some s;
          Printf.eprintf
            "simq: warning: ignoring invalid SIMQ_METRICS_PORT=%S (expected \
             a port number); not serving metrics\n\
             %!"
            s
        end;
        None))

let ( let* ) = Result.bind

let dump_observability ~metrics ~trace =
  let* () =
    match metrics with
    | None -> Ok ()
    | Some "-" ->
      print_string (Metrics.exposition ());
      Ok ()
    | Some file -> (
      match
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Metrics.exposition ()))
      with
      | () -> Ok ()
      | exception Sys_error msg -> Error (File msg))
  in
  match trace with
  | None -> Ok ()
  | Some file -> (
    match Otrace.export_file file with
    | () -> Ok ()
    | exception Sys_error msg -> Error (File msg))

let dump_profile = function
  | None -> Ok ()
  | Some (profile, dest) -> (
    let text =
      if dest <> "-" && Filename.check_suffix dest ".json" then
        Json.to_string (Profile.to_json profile) ^ "\n"
      else Profile.render profile
    in
    match dest with
    | "-" ->
      print_string text;
      Ok ()
    | file -> (
      match
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc text)
      with
      | () -> Ok ()
      | exception Sys_error msg -> Error (File msg)))

let save_metrics_state = function
  | None -> Ok ()
  | Some file -> (
    match Metrics.save_state file with
    | () -> Ok ()
    | exception Sys_error msg -> Error (File msg))

let close_qlog qlog =
  match Option.iter Qlog.close qlog with
  | () -> Ok ()
  | exception Sys_error msg -> Error (File msg)

let with_obs ?metrics_port ?history_interval_s ?metrics_state ?profile ?qlog
    ~metrics ~trace f =
  if Option.is_some metrics then Metrics.set_enabled true;
  (* Persisted state is collected state: restoring or saving it without
     collection running would round-trip zeros. Likewise the query
     log's counter deltas are empty unless collection is on. *)
  if Option.is_some metrics_state then Metrics.set_enabled true;
  if Option.is_some qlog then Metrics.set_enabled true;
  if Option.is_some trace then Otrace.set_enabled true;
  let server =
    match metrics_port with
    | None -> Ok None
    | Some port -> (
      (* A live scrape endpoint is only useful if metrics record. The
         history sampler rides along: it only snapshots the registry
         (merge-on-read), so its presence leaves every merged total
         unchanged. *)
      Metrics.set_enabled true;
      let history = History.create ?interval_s:history_interval_s () in
      History.start history;
      match
        Serve.start ~history:(fun () -> History.document history) ~port ()
      with
      | server ->
        Printf.eprintf "simq: serving metrics on http://127.0.0.1:%d/metrics\n%!"
          (Serve.port server);
        Ok (Some (server, history))
      | exception Unix.Unix_error (err, _, _) ->
        History.stop history;
        Error
          (Usage
             (Printf.sprintf "cannot serve metrics on port %d: %s" port
                (Unix.error_message err))))
  in
  let* server = server in
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun (server, history) ->
          History.stop history;
          Serve.stop server)
        server)
  @@ fun () ->
  (* Every exit path runs the whole dump chain; the first failure wins
     but each step still only depends on its own destination. *)
  let dump_all () =
    let* () = dump_observability ~metrics ~trace in
    let* () = dump_profile profile in
    let* () = save_metrics_state metrics_state in
    close_qlog qlog
  in
  let loaded =
    match metrics_state with
    | Some file when Sys.file_exists file -> (
      match Metrics.load_state file with
      | () -> Ok ()
      | exception Failure msg -> Error (File msg)
      | exception Sys_error msg -> Error (File msg))
    | _ -> Ok ()
  in
  match loaded with
  | Error _ as e ->
    (* The saved state could not be restored, so [f] never ran; the log
       still has to be released. *)
    ignore (close_qlog qlog : (unit, error) result);
    e
  | Ok () ->
    let result =
      match f () with
      | result -> result
      | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        (* The run blew up; the collected metrics/trace/profile/state
           describe the failing run and must still be written before
           re-raising. *)
        ignore (dump_all () : (unit, error) result);
        Printexc.raise_with_backtrace exn bt
    in
    let dumped = dump_all () in
    (match result with Error _ -> result | Ok () -> dumped)

let scrape ?timeout_ms ~host ~port () =
  match resolve_metrics_port port with
  | None ->
    Error (Usage "scrape: no port given (use --port or set SIMQ_METRICS_PORT)")
  | Some port -> (
    let timeout = Option.map (fun ms -> float_of_int ms /. 1000.) timeout_ms in
    match Serve.scrape ~host ?timeout ~port () with
    | body ->
      print_string body;
      Ok ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* SO_RCVTIMEO/SO_SNDTIMEO expiring: a hung peer, not a dead
         one — name the timeout rather than the raw errno. *)
      Error
        (File
           (Printf.sprintf "scrape http://%s:%d/metrics: timed out after %d ms"
              host port
              (Option.value timeout_ms ~default:0)))
    | exception Unix.Unix_error (err, _, _) ->
      Error
        (File
           (Printf.sprintf "scrape http://%s:%d/metrics: %s" host port
              (Unix.error_message err)))
    | exception Failure msg ->
      Error (File (Printf.sprintf "scrape http://%s:%d/metrics: %s" host port msg)))
