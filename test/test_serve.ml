(* The simq serve daemon (lib/serve): the request/response line
   grammar round-trips, workers isolate every kind of abuse (malformed
   lines, oversized lines, mid-query disconnects), a zero in-flight
   cap sheds before any execution-side counter moves, the drain is
   graceful, NN admission vetting is domain-count invariant, and the
   chaos harness finds served answers bit-identical to offline
   execution while the daemon survives. *)

module Protocol = Simq_serve.Protocol
module Engine = Simq_serve.Engine
module Server = Simq_serve.Server
module Stress = Simq_serve.Stress
module Admission = Simq_admission
module Metrics = Simq_obs.Metrics
module Qlog = Simq_obs.Qlog
module J = Simq_obs.Json
module Pool = Simq_parallel.Pool
module Budget = Simq_fault.Budget
module Generator = Simq_series.Generator
open Simq_tsindex

let build_index ?(count = 32) ?(n = 64) () =
  let batch = Generator.random_walks ~seed:4711 ~count ~n in
  Kindex.build (Dataset.of_series ~name:"serve" batch)

let with_daemon ?max_inflight ?max_line_bytes ?qlog ?slow_k ?engine f =
  let engine =
    match engine with Some e -> e | None -> Engine.create (build_index ())
  in
  Server.with_server ?max_inflight ?max_line_bytes ?qlog ?slow_k ~engine
    ~port:0 (fun server -> f server (Server.port server))

let connect port = Stress.Client.connect ~timeout:10. ~host:"127.0.0.1" ~port ()

let member_str name json =
  match J.member name json with Some (J.Str s) -> Some s | _ -> None

let member_int name json =
  match J.member name json with
  | Some (J.Num x) -> Some (int_of_float x)
  | _ -> None

let query_json client spec =
  match Stress.Client.query client spec with
  | Ok json -> json
  | Error msg -> Alcotest.failf "query %S: %s" spec msg

let expect_outcome ~what ~outcome ~exit_code json =
  Alcotest.(check (option string)) (what ^ ": outcome") (Some outcome)
    (member_str "outcome" json);
  Alcotest.(check (option int)) (what ^ ": exit") (Some exit_code)
    (member_int "exit" json)

(* --- the line grammar (QCheck round-trip) ---------------------------------- *)

let arb_raw_line =
  (* Arbitrary bytes, including newlines, NULs, backslashes and
     non-ASCII — everything a hostile or merely unlucky client could
     put in a spec. *)
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 300))

let prop_escape_roundtrip =
  QCheck.Test.make ~name:"escape/unescape round-trips any bytes" ~count:500
    arb_raw_line (fun s ->
      let escaped = Protocol.escape s in
      String.for_all (fun c -> c <> '\n' && c <> '\r') escaped
      && Protocol.parse_request ("RANGE " ^ escaped)
         = Ok (Protocol.Query { profile = false; spec = "RANGE " ^ s }))

let test_unescape_rejects_bad_escapes () =
  (match Protocol.parse_request "a\\qb" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown escape accepted");
  match Protocol.parse_request "dangling\\" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dangling backslash accepted"

let test_escape_handles_newlines () =
  let spec = "RANGE FROM r\nQUERY s1\tEPS 2.0\r" in
  let escaped = Protocol.escape spec in
  Alcotest.(check bool) "single line" false (String.contains escaped '\n');
  Alcotest.(check bool) "round-trips" true
    (Protocol.parse_request escaped
    = Ok (Protocol.Query { profile = false; spec }))

(* --- served answers equal offline execution -------------------------------- *)

let offline_results engine spec =
  match Engine.exec engine spec with
  | Ok o -> J.to_string o.Engine.results
  | Error e ->
    Alcotest.failf "offline %S failed: %s" spec (Simq_cli.message e)

let test_served_equals_offline () =
  let index = build_index () in
  let offline = Engine.create index in
  let engine = Engine.create index in
  with_daemon ~engine (fun _server port ->
      let client = connect port in
      Fun.protect
        ~finally:(fun () -> Stress.Client.close client)
        (fun () ->
          List.iter
            (fun spec ->
              let json = query_json client spec in
              expect_outcome ~what:spec ~outcome:"ok" ~exit_code:0 json;
              let served =
                match J.member "results" json with
                | Some r -> J.to_string r
                | None -> Alcotest.failf "%s: no results" spec
              in
              Alcotest.(check string)
                (spec ^ ": served = offline")
                (offline_results offline spec)
                served)
            [
              "RANGE FROM r QUERY s3 EPS 2.0";
              "RANGE FROM r USING mavg(4) QUERY s1 EPS 3.0 MEAN 0.5";
              "NEAREST 5 FROM r QUERY s2";
              "PAIRS FROM r EPS 1.0 METHOD scan";
            ]))

(* A query series is named [s] and decimal digits: the other integer
   syntaxes [int_of_string] reads are usage errors, not other series. *)
let test_query_names_are_decimal () =
  let engine = Engine.create (build_index ()) in
  List.iter
    (fun name ->
      match
        Engine.exec engine (Printf.sprintf "NEAREST 3 FROM r QUERY %s" name)
      with
      | Ok _ -> Alcotest.failf "%s answered" name
      | Error e ->
        Alcotest.(check string) (name ^ ": message")
          (Printf.sprintf "bad query name %S (expected sN)" name)
          (Simq_cli.message e);
        Alcotest.(check (pair string int)) (name ^ ": outcome") ("usage", 1)
          (Simq_cli.outcome_of_error e))
    [ "s0x1f"; "s1_0"; "s0b11"; "s0o7" ];
  ignore (offline_results engine "NEAREST 3 FROM r QUERY s031")

(* --- one executor: every engine type answers alike ---------------------------- *)

let answer_count engine spec =
  match Engine.exec engine spec with
  | Ok o -> o.Engine.answers
  | Error e -> Alcotest.failf "%S failed: %s" spec (Simq_cli.message e)

(* MEAN/STD ranges must keep their side constraints on every engine
   type — budgeted, vetted, sharded, and starved of node accesses so
   that the index path degrades to the scan (per shard on a sharded
   engine) — and simq query runs through the same routing. *)
let test_checked_engines_keep_side_constraints () =
  let index = build_index ~count:80 () in
  let dataset = Kindex.dataset index in
  let plain = Engine.create index in
  let budget () =
    Budget.create ~max_page_reads:100_000 ~max_node_accesses:100_000 ()
  in
  let starved () = Budget.create ~max_node_accesses:0 () in
  let engines =
    [
      ("budgeted", Engine.create ~budget:(budget ()) index);
      ("admission", Engine.create ~admission:Admission.default index);
      ("3 shards, budgeted", Engine.create ~shards:3 ~budget:(budget ()) index);
      ( "3 shards, sketched",
        Engine.create ~shards:3 ~sketch:Simq_sketch.default index );
      ("starved", Engine.create ~budget:(starved ()) index);
      ("3 shards, starved", Engine.create ~shards:3 ~budget:(starved ()) index);
      ( "3 shards, admission",
        Engine.create ~shards:3 ~admission:Admission.default index );
    ]
  in
  let cases =
    [
      (Spec.Identity, "", 3, 8., Some 0.5, None);
      (Spec.Identity, "", 5, 8., None, Some 1.5);
      (Spec.Moving_average 4, " USING mavg(4)", 7, 6., Some 1., Some 2.);
      (Spec.Reverse, " USING rev", 9, 8., Some 0.8, None);
    ]
  in
  List.iter
    (fun (spec, using, q, epsilon, mean_window, std_band) ->
      let opt name = function
        | Some v -> Printf.sprintf " %s %g" name v
        | None -> ""
      in
      let unconstrained =
        Printf.sprintf "RANGE FROM r%s QUERY s%d EPS %g" using q epsilon
      in
      let text =
        unconstrained ^ opt "MEAN" mean_window ^ opt "STD" std_band
      in
      (* The plain engine is the direct constrained traversal... *)
      let direct =
        Kindex.range ~spec ?mean_window ?std_band index
          ~query:(Dataset.get dataset q).Dataset.series ~epsilon
      in
      let reference = offline_results plain text in
      Alcotest.(check string) (text ^ ": plain = direct traversal")
        (J.to_string
           (J.Arr
              (List.map
                 (fun (id, d) ->
                   J.Obj
                     [
                       ("id", J.Num (float_of_int id));
                       ("name", J.Str (Dataset.name dataset id));
                       ("distance", J.Num d);
                     ])
                 direct.Kindex.answers)))
        reference;
      (* ...whose constraints bite, so dropping them would show... *)
      Alcotest.(check bool) (text ^ ": the constraints drop answers") true
        (answer_count plain unconstrained > List.length direct.Kindex.answers);
      (* ...and every other engine type answers bit for bit alike,
         sharded ones through the scatter-gather. *)
      List.iter
        (fun (name, engine) ->
          let note = Engine.note () in
          let results =
            match Engine.exec ~note engine text with
            | Ok o -> J.to_string o.Engine.results
            | Error e ->
              Alcotest.failf "%s: %s failed: %s" text name
                (Simq_cli.message e)
          in
          Alcotest.(check string)
            (Printf.sprintf "%s: %s = plain" text name)
            reference results;
          if Option.is_some (Engine.sharded engine) then
            Alcotest.(check (option string))
              (Printf.sprintf "%s: %s path" text name)
              (Some "shard") note.Engine.note_path)
        engines)
    cases

(* An approximate engine under a budget that dies inside exact
   verification returns a sound subset; the outcome says so, and so
   does the served line — a complete answer's line has no such
   member. *)
let test_anytime_partial_is_carried () =
  let index = build_index ~count:80 () in
  let plain = Engine.create index in
  let engine =
    Engine.create ~budget:(Budget.create ~max_comparisons:1 ())
      ~sketch:Simq_sketch.default ~approx:0. index
  in
  let spec = "RANGE FROM r QUERY s2 EPS 8" in
  let rows engine =
    match Engine.exec engine spec with
    | Ok o -> (o, Option.value (J.arr o.Engine.results) ~default:[])
    | Error e -> Alcotest.failf "%s failed: %s" spec (Simq_cli.message e)
  in
  let complete, exact = rows plain in
  let partial, subset = rows engine in
  Alcotest.(check bool) "plain answer complete" false complete.Engine.partial;
  Alcotest.(check bool) "budget died inside verification" true
    partial.Engine.partial;
  Alcotest.(check bool) "a strict subset" true
    (List.length subset < List.length exact);
  List.iter
    (fun row ->
      if not (List.mem row exact) then
        Alcotest.failf "partial answer %s not in the exact set"
          (J.to_string row))
    subset;
  let served engine =
    with_daemon ~engine (fun _server port ->
        let client = connect port in
        Fun.protect
          ~finally:(fun () -> Stress.Client.close client)
          (fun () -> query_json client spec))
  in
  Alcotest.(check bool) "served line marked partial" true
    (J.member "partial" (served engine) = Some (J.Bool true));
  Alcotest.(check bool) "complete line carries no partial member" true
    (J.member "partial" (served plain) = None)

(* --- worker isolation under abuse ------------------------------------------ *)

let test_malformed_line_isolated () =
  with_daemon (fun _server port ->
      let client = connect port in
      Fun.protect
        ~finally:(fun () -> Stress.Client.close client)
        (fun () ->
          expect_outcome ~what:"garbage" ~outcome:"usage" ~exit_code:1
            (query_json client "DEFINITELY NOT A QUERY");
          expect_outcome ~what:"bad escape" ~outcome:"usage" ~exit_code:1
            (query_json client "RANGE FROM r QUERY s0 EPS 1.0\\q");
          (* The same connection still answers. *)
          expect_outcome ~what:"after abuse" ~outcome:"ok" ~exit_code:0
            (query_json client "NEAREST 2 FROM r QUERY s0")))

let test_oversized_line_isolated () =
  with_daemon ~max_line_bytes:256 (fun _server port ->
      let client = connect port in
      Fun.protect
        ~finally:(fun () -> Stress.Client.close client)
        (fun () ->
          Stress.Client.send_line client (String.make 4096 'x');
          (match Stress.Client.recv_line client with
          | Some line -> (
            match J.parse line with
            | Ok json ->
              expect_outcome ~what:"oversized" ~outcome:"usage" ~exit_code:1
                json
            | Error msg -> Alcotest.failf "unparseable response: %s" msg)
          | None -> Alcotest.fail "connection dropped on oversized line");
          expect_outcome ~what:"after oversized" ~outcome:"ok" ~exit_code:0
            (query_json client "NEAREST 2 FROM r QUERY s0")))

(* Request lines as they arrive on the wire, however the writes cut
   them: 500 requests in one write, then one request split across two
   writes. Every line is answered, in order. *)
let test_pipelined_lines () =
  let spec i = Printf.sprintf "NEAREST 1 FROM r QUERY s%d" (i mod 32) in
  let write_all fd s =
    let rec go off =
      if off < String.length s then
        go (off + Unix.write_substring fd s off (String.length s - off))
    in
    go 0
  in
  let session port f =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let ic = Unix.in_channel_of_descr fd in
        let answered count =
          for i = 0 to count - 1 do
            match J.parse (input_line ic) with
            | Ok json ->
              Alcotest.(check (option int)) "in order" (Some i)
                (member_int "seq" json);
              Alcotest.(check (option string)) "its spec" (Some (spec i))
                (member_str "spec" json)
            | Error msg -> Alcotest.failf "unparseable response: %s" msg
          done
        in
        f (write_all fd) answered)
  in
  with_daemon (fun _server port ->
      session port (fun write answered ->
          write (String.concat "" (List.init 500 (fun i -> spec i ^ "\n")));
          answered 500);
      session port (fun write answered ->
          let lines = spec 0 ^ "\n" ^ spec 1 ^ "\n" in
          let cut = String.length (spec 0) + 9 in
          write (String.sub lines 0 cut);
          Thread.delay 0.05;
          write (String.sub lines cut (String.length lines - cut));
          answered 2))

let test_disconnect_mid_query_isolated () =
  with_daemon (fun _server port ->
      (* Fire a query and vanish before the response. *)
      let rude = connect port in
      Stress.Client.send_line rude
        (Protocol.escape "RANGE FROM r QUERY s1 EPS 4.0");
      Stress.Client.close rude;
      (* The daemon must still serve a polite client. *)
      let polite = connect port in
      Fun.protect
        ~finally:(fun () -> Stress.Client.close polite)
        (fun () ->
          expect_outcome ~what:"after disconnect" ~outcome:"ok" ~exit_code:0
            (query_json polite "NEAREST 3 FROM r QUERY s1")))

(* --- load shedding before execution ---------------------------------------- *)

let execution_families =
  [
    "simq_buffer_pool_hits_total"; "simq_buffer_pool_misses_total";
    "simq_scan_candidates_total"; "simq_kindex_candidates_total";
    "simq_rtree_node_visits_total";
  ]

let test_shed_is_typed_and_executes_nothing () =
  (* Build everything before resetting the registry, so the only
     counter movement we could see is the served query's own. *)
  let engine = Engine.create (build_index ()) in
  Metrics.with_enabled true (fun () ->
      Metrics.reset ();
      with_daemon ~max_inflight:0 ~engine (fun server port ->
          let client = connect port in
          Fun.protect
            ~finally:(fun () -> Stress.Client.close client)
            (fun () ->
              let json = query_json client "RANGE FROM r QUERY s3 EPS 2.0" in
              expect_outcome ~what:"shed" ~outcome:"rejected:in_flight"
                ~exit_code:5 json;
              List.iter
                (fun family ->
                  Alcotest.(check int)
                    (family ^ " untouched")
                    0
                    (Metrics.counter_total (Metrics.counter family)))
                execution_families;
              Alcotest.(check int) "shed counted as a rejection" 1
                (Metrics.counter_total
                   (Metrics.counter
                      ~labels:[ ("decision", "reject") ]
                      "simq_admission_decisions_total"));
              let stats = Server.stats server in
              Alcotest.(check int) "server counted the shed" 1
                stats.Server.shed;
              Alcotest.(check int) "nothing served" 0 stats.Server.served)))

(* An admission-rejected MEAN range executes nothing, on a monolithic
   engine (through the planner) and on a sharded one (per-shard
   pre-flight): the constrained range is vetted like any other. *)
let test_rejected_mean_range_executes_nothing () =
  let index = build_index () in
  let starved () = Budget.create ~max_page_reads:3 ~max_node_accesses:0 () in
  List.iter
    (fun (name, engine) ->
      Metrics.with_enabled true (fun () ->
          Metrics.reset ();
          let note = Engine.note () in
          (match
             Engine.exec ~note engine "RANGE FROM r QUERY s3 EPS 2.0 MEAN 0.5"
           with
          | Ok _ -> Alcotest.failf "%s: the starved MEAN range ran" name
          | Error e ->
            Alcotest.(check string)
              (name ^ ": rejected") "rejected:page_reads"
              (match e with
              | Simq_cli.Fault f -> Simq_fault.Error.kind f
              | e -> Simq_cli.message e));
          Alcotest.(check (option string))
            (name ^ ": decision") (Some "reject") note.Engine.note_decision;
          List.iter
            (fun family ->
              Alcotest.(check int)
                (Printf.sprintf "%s: %s untouched" name family)
                0
                (Metrics.counter_total (Metrics.counter family)))
            ("simq_shard_fanout_total" :: execution_families)))
    [
      ( "monolithic",
        Engine.create ~budget:(starved ()) ~admission:Admission.default index );
      ( "3 shards",
        Engine.create ~shards:3 ~budget:(starved ())
          ~admission:Admission.default index );
    ]

(* --- graceful drain --------------------------------------------------------- *)

let test_shutdown_drains_and_answers () =
  with_daemon (fun server port ->
      let client = connect port in
      expect_outcome ~what:"pre-shutdown" ~outcome:"ok" ~exit_code:0
        (query_json client "NEAREST 2 FROM r QUERY s0");
      Stress.Client.send_line client "shutdown";
      (match Stress.Client.recv_line client with
      | Some line ->
        let json = Result.get_ok (J.parse line) in
        Alcotest.(check (option string))
          "shutdown acknowledged" (Some "simq.serve.shutdown")
          (member_str "event" json)
      | None -> Alcotest.fail "no shutdown acknowledgement");
      Stress.Client.close client;
      (* wait must return: the drain completes on its own. *)
      Server.wait server;
      let stats = Server.stats server in
      Alcotest.(check bool) "served at least the one query" true
        (stats.Server.served >= 1))

(* A worker forgets its thread as its last action, so a daemon that
   has served many connections retains none that has finished. *)
let test_finished_workers_not_retained () =
  with_daemon (fun server port ->
      for _ = 1 to 100 do
        let client = connect port in
        Stress.Client.send_line client "ping";
        ignore (Stress.Client.recv_line client : string option);
        Stress.Client.close client
      done;
      (* Each worker exits once it reads its peer's EOF, after the
         close returned. *)
      let deadline = Unix.gettimeofday () +. 10. in
      let rec settle () =
        let stats = Server.stats server in
        if stats.Server.workers > 0 && Unix.gettimeofday () < deadline then begin
          Thread.delay 0.005;
          settle ()
        end
        else stats
      in
      let stats = settle () in
      Alcotest.(check int) "connections" 100 stats.Server.connections;
      Alcotest.(check int) "no finished worker retained" 0
        stats.Server.workers)

(* The drain starts once the query is executing (a full-scan self-join
   of 3,000 series, far longer than the polling step) and while it
   still is; [stop] returns only after it is served. *)
let test_drain_waits_for_inflight () =
  let engine = Engine.create (build_index ~count:3000 ~n:32 ()) in
  let server = Server.start ~engine ~port:0 () in
  let client = connect (Server.port server) in
  Fun.protect
    ~finally:(fun () -> Stress.Client.close client)
    (fun () ->
      Stress.Client.send_line client "PAIRS FROM r EPS 0.5 METHOD scan";
      let deadline = Unix.gettimeofday () +. 60. in
      while (Server.stats server).Server.in_flight = 0 do
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "the query never started";
        Thread.delay 0.001
      done;
      Server.request_drain server;
      Alcotest.(check int)
        "in flight when the drain began" 1
        (Server.stats server).Server.in_flight;
      Server.stop server;
      let stats = Server.stats server in
      Alcotest.(check int) "served before stop returned" 1 stats.Server.served;
      Alcotest.(check int) "no worker left" 0 stats.Server.workers;
      match Stress.Client.recv_line client with
      | Some line ->
        expect_outcome ~what:"in-flight query" ~outcome:"ok" ~exit_code:0
          (Result.get_ok (J.parse line))
      | None -> Alcotest.fail "the in-flight query got no response")

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let test_qlog_records_served_queries () =
  let path = Filename.temp_file "simq_serve" ".qlog" in
  let qlog = Qlog.create path in
  let engine = Engine.create (build_index ()) in
  let timed =
    Metrics.with_enabled true (fun () ->
        Metrics.reset ();
        with_daemon ~qlog ~engine (fun _server port ->
            let client = connect port in
            Fun.protect
              ~finally:(fun () -> Stress.Client.close client)
              (fun () ->
                ignore (query_json client "RANGE FROM r QUERY s3 EPS 2.0");
                ignore (query_json client "NOT A QUERY")));
        Metrics.histogram_count (Metrics.histogram "simq_timer_seconds"))
  in
  Qlog.close qlog;
  (* The admission policy and /history read served query times here. *)
  Alcotest.(check int) "every served query timed" 2 timed;
  let lines = read_lines path in
  Sys.remove path;
  Alcotest.(check int) "one entry per request" 2 (List.length lines);
  let outcomes =
    List.map
      (fun line -> member_str "outcome" (Result.get_ok (J.parse line)))
      lines
  in
  Alcotest.(check (list (option string)))
    "outcomes logged in order"
    [ Some "ok"; Some "usage" ]
    outcomes

(* A malformed query refused before any engine exists gets the usage
   error and the qlog line that executing it on an engine gets, the
   duration aside; a query that parses passes and logs nothing. *)
let test_parse_checked_matches_exec () =
  let engine = Engine.create (build_index ()) in
  let logged f =
    let path = Filename.temp_file "simq_serve" ".qlog" in
    let qlog = Qlog.create path in
    let result = f qlog in
    Qlog.close qlog;
    let lines = read_lines path in
    Sys.remove path;
    ( result,
      List.map
        (fun line ->
          match J.parse line with
          | Ok (J.Obj fields) -> List.remove_assoc "duration_ms" fields
          | _ -> Alcotest.failf "not a JSON object: %s" line)
        lines )
  in
  List.iter
    (fun text ->
      let exec_result, exec_lines =
        logged (fun qlog -> Engine.exec ~qlog engine text)
      and checked, checked_lines =
        logged (fun qlog -> Engine.parse_checked ~qlog:(Some qlog) text)
      in
      (match (exec_result, checked) with
      | Error (Simq_cli.Usage a), Error (Simq_cli.Usage b) ->
        Alcotest.(check string) (text ^ ": message") a b
      | _ -> Alcotest.failf "%s: expected two usage errors" text);
      Alcotest.(check int) (text ^ ": one line each") 1
        (List.length checked_lines);
      Alcotest.(check bool) (text ^ ": the same qlog line") true
        (exec_lines = checked_lines))
    [ "NOT A QUERY"; "RANGE FROM r USING teleport QUERY s0 EPS 1"; "" ];
  let ok, lines =
    logged (fun qlog ->
        Engine.parse_checked ~qlog:(Some qlog)
          "RANGE FROM r QUERY s3 EPS 2.0")
  in
  Alcotest.(check bool) "a query that parses passes" true (Result.is_ok ok);
  Alcotest.(check int) "and logs nothing" 0 (List.length lines)

(* A served RANGE that admission rejects logs the decision [reject] in
   the daemon's qlog, and the engine's record of the same query carries
   the rejection exit code 5, not the execution-failure 4. *)
let test_qlog_logs_range_rejection () =
  let served = Filename.temp_file "simq_serve" ".qlog" in
  let qlog = Qlog.create served in
  let engine =
    Engine.create
      ~budget:(Budget.create ~max_page_reads:3 ~max_node_accesses:0 ())
      ~admission:Admission.default (build_index ())
  in
  let spec = "RANGE FROM r QUERY s3 EPS 2.0" in
  with_daemon ~qlog ~engine (fun _server port ->
      let client = connect port in
      Fun.protect
        ~finally:(fun () -> Stress.Client.close client)
        (fun () ->
          expect_outcome ~what:"starved range" ~outcome:"rejected:page_reads"
            ~exit_code:5 (query_json client spec)));
  Qlog.close qlog;
  let served =
    let lines = read_lines served in
    Sys.remove served;
    match lines with
    | [ line ] -> Result.get_ok (J.parse line)
    | ls -> Alcotest.failf "expected one qlog line, got %d" (List.length ls)
  in
  Alcotest.(check (option string)) "served decision" (Some "reject")
    (member_str "decision" served);
  Alcotest.(check (option int)) "served exit" (Some 5)
    (member_int "exit" served);
  let note = Engine.note () in
  ignore (Engine.exec ~note engine spec);
  let entry = Engine.qlog_entry note in
  Alcotest.(check (option string)) "engine record decision" (Some "reject")
    entry.Qlog.decision;
  Alcotest.(check int) "engine record exit" 5 entry.Qlog.exit_code

(* A MEAN/STD range and its unconstrained twin answer differently, so
   their qlog lines carry different spec texts and digests. *)
let test_qlog_keeps_side_constraints_apart () =
  let path = Filename.temp_file "simq_qlog" ".qlog" in
  let log = Qlog.create path in
  let engine = Engine.create (build_index ()) in
  let specs =
    [
      "RANGE FROM r QUERY s3 EPS 2.0";
      "RANGE FROM r QUERY s3 EPS 2.0 MEAN 0.5";
      "RANGE FROM r QUERY s3 EPS 2.0 MEAN 0.5 STD 2";
    ]
  in
  List.iter
    (fun spec ->
      match Engine.exec ~qlog:log engine spec with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s failed: %s" spec (Simq_cli.message e))
    specs;
  Qlog.close log;
  let lines = List.map (fun l -> Result.get_ok (J.parse l)) (read_lines path) in
  Sys.remove path;
  Alcotest.(check (list (option string)))
    "spec texts"
    (List.map Option.some specs)
    (List.map (member_str "spec") lines);
  let digests = List.map (member_str "digest") lines in
  Alcotest.(check int) "distinct digests" 3
    (List.length (List.sort_uniq compare digests))

(* One request record behind every entry point: for the same spec, the
   qlog line of the one-query path ([simq query]), of the batch path
   ([simq batch]) and of a live daemon ([simq serve]) agree on every
   field the record carries — on an unsharded and on a sharded engine,
   for an answered RANGE and NEAREST, an admission rejection and a
   malformed spec. *)
let test_one_record_every_entry_point () =
  let index = build_index ~count:80 () in
  let specs =
    [|
      "RANGE FROM r QUERY s3 EPS 2.0";
      "NEAREST 3 FROM r QUERY s2";
      "PAIRS FROM r EPS 1.0 METHOD scan";
      "NOT A QUERY";
    |]
  in
  let fields =
    [ "spec"; "digest"; "decision"; "path"; "shards"; "outcome"; "exit" ]
  in
  let logged f =
    let path = Filename.temp_file "simq_record" ".qlog" in
    let log = Qlog.create path in
    f log;
    Qlog.close log;
    let lines = read_lines path in
    Sys.remove path;
    List.map
      (fun line ->
        let json = Result.get_ok (J.parse line) in
        List.map
          (fun k ->
            (k, Option.fold ~none:"-" ~some:J.to_string (J.member k json)))
          fields)
      lines
  in
  List.iter
    (fun shards ->
      let engine () =
        Engine.create ?shards
          ~budget:(Budget.create ~max_comparisons:1_000 ())
          ~admission:Admission.default index
      in
      let what = match shards with None -> "unsharded" | Some _ -> "sharded" in
      let query =
        logged (fun log ->
            let engine = engine () in
            Array.iter
              (fun spec -> ignore (Engine.exec ~qlog:log engine spec))
              specs)
      in
      let batch =
        logged (fun log -> ignore (Engine.batch ~qlog:log (engine ()) specs))
      in
      let served =
        logged (fun qlog ->
            with_daemon ~qlog ~engine:(engine ()) (fun _server port ->
                let client = connect port in
                Fun.protect
                  ~finally:(fun () -> Stress.Client.close client)
                  (fun () ->
                    Array.iter
                      (fun spec -> ignore (query_json client spec))
                      specs)))
      in
      let outcomes = List.map (List.assoc "outcome") query in
      Alcotest.(check (list string))
        (what ^ ": an answer, an answer, a rejection, a usage error")
        [ "\"ok\""; "\"ok\""; "\"rejected:comparisons\""; "\"usage\"" ]
        outcomes;
      Alcotest.(check bool)
        (what ^ ": shard counts present iff sharded")
        (Option.is_some shards)
        (List.assoc "shards" (List.hd query) <> "null");
      Alcotest.(check (list (list (pair string string))))
        (what ^ ": batch lines = query lines") query batch;
      Alcotest.(check (list (list (pair string string))))
        (what ^ ": served lines = query lines") query served)
    [ None; Some 3 ]

(* --- NN admission: domain-count invariance and exact degradation ----------- *)

let nn_decisions index ~domains =
  let saved = Pool.default_domains () in
  Pool.set_default_domains domains;
  Fun.protect
    ~finally:(fun () -> Pool.set_default_domains saved)
    (fun () ->
      let admission =
        Admission.create ~registry:(Metrics.create_registry ()) ()
      in
      let query = (Dataset.entries (Kindex.dataset index)).(1).Dataset.series in
      List.map
        (fun (k, budget) ->
          match Kindex.nearest_checked ~budget ~admission index ~query ~k with
          | Ok r ->
            ( Option.map Admission.decision_name r.Kindex.admission,
              Ok
                (List.map fst
                   r.Kindex.neighbours) )
          | Error e ->
            (* A rejection is the one decision reported as an error. *)
            ( (match e with
              | Simq_fault.Error.Rejected _ -> Some "reject"
              | _ -> None),
              Error (Simq_fault.Error.kind e) ))
        [
          (3, Budget.unlimited);
          (3, Budget.create ~max_node_accesses:0 ~max_comparisons:10_000
                ~max_page_reads:10_000 ());
          (5, Budget.create ~max_node_accesses:0 ~max_page_reads:1 ());
        ])

let test_nn_admission_domain_invariant () =
  let index = build_index () in
  let reference = nn_decisions index ~domains:1 in
  (* The three budgets exercise all three decisions. *)
  Alcotest.(check (list (option string)))
    "admit, degrade and reject all reached"
    [ Some "admit"; Some "degrade_to_scan"; Some "reject" ]
    (List.map fst reference);
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "decisions and answers at %d domains" domains)
        true
        (nn_decisions index ~domains = reference))
    [ 2; 4 ]

let test_nn_degrade_is_exact () =
  let index = build_index () in
  let admission = Admission.create ~registry:(Metrics.create_registry ()) () in
  let query = (Dataset.entries (Kindex.dataset index)).(2).Dataset.series in
  let k = 4 in
  let plain =
    Kindex.nearest index ~query ~k
  in
  let degraded =
    match
      Kindex.nearest_checked
        ~budget:
          (Budget.create ~max_node_accesses:0 ~max_comparisons:10_000
             ~max_page_reads:10_000 ())
        ~admission index ~query ~k
    with
    | Ok r ->
      r.Kindex.neighbours
    | Error e -> Alcotest.failf "degraded NN failed: %s" (Simq_fault.Error.kind e)
  in
  Alcotest.(check bool) "degraded NN bit-identical to the index path" true
    (plain = degraded)

(* --- the chaos harness ------------------------------------------------------ *)

let chaos_report index =
  let offline = Engine.create index in
  let oracle spec =
    match Engine.exec offline spec with
    | Ok o -> Some o.Engine.results
    | Error _ -> None
  in
  let engine = Engine.create index in
  Server.with_server ~engine ~port:0 (fun server ->
      Stress.run ~chaos:true ~timeout:30. ~oracle ~host:"127.0.0.1"
        ~port:(Server.port server) ~clients:4 ~per_client:8 ~seed:9001
        ~cardinality:32 ())

(* Served at 1, 2 and 4 domains (the default pool resized, then
   restored): every answer bit-identical to offline execution. *)
let test_chaos_survives_and_matches () =
  let index = build_index () in
  let saved = Pool.default_domains () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_domains saved)
    (fun () ->
      List.iter
        (fun domains ->
          Pool.set_default_domains domains;
          let report = chaos_report index in
          let what s = Printf.sprintf "%s, domains=%d" s domains in
          Alcotest.(check bool) (what "daemon alive") false
            report.Stress.server_gone;
          Alcotest.(check int) (what "no protocol violations") 0
            report.Stress.protocol_errors;
          Alcotest.(check int) (what "no execution failures") 0
            report.Stress.failed;
          Alcotest.(check (list (pair string string)))
            (what "served answers bit-identical to offline")
            [] report.Stress.mismatches;
          Alcotest.(check bool) (what "abuse actually happened") true
            (report.Stress.malformed_sent > 0 && report.Stress.disconnects > 0);
          Alcotest.(check bool) (what "queries actually served") true
            (report.Stress.ok > 0))
        [ 1; 2; 4 ])

let test_chaos_with_injected_faults () =
  (* Seeded transient faults on the page and node seams, carried by the
     engine's budget, while hostile clients abuse the protocol: the
     budgeted engine's resilient paths retry or degrade, anything that
     still escapes becomes a typed fault line — and the daemon survives
     all of it. *)
  let index = build_index () in
  let faults =
    Simq_fault.Injector.create
      ~page_reads:(Simq_fault.Injector.transient ~probability:0.1 ())
      ~node_accesses:(Simq_fault.Injector.transient ~probability:0.1 ())
      ~seed:1312 ()
  in
  let engine =
    Engine.create
      ~budget:
        (Budget.create ~max_page_reads:1_000_000 ~max_node_accesses:1_000_000
           ~faults ())
      index
  in
  let report =
    Server.with_server ~engine ~port:0 (fun server ->
        Stress.run ~chaos:true ~timeout:30. ~host:"127.0.0.1"
          ~port:(Server.port server) ~clients:4 ~per_client:8 ~seed:1848
          ~cardinality:32 ())
  in
  Alcotest.(check bool) "daemon alive under faults" false
    report.Stress.server_gone;
  Alcotest.(check int) "every request answered in protocol" 0
    report.Stress.protocol_errors;
  Alcotest.(check bool) "queries still served" true (report.Stress.ok > 0)

(* An engine whose budget carries always-firing faults at the chosen
   sites, and no limit. *)
let faulty_engine ?shards ?(node = false) ?(page = false) index =
  let always flag =
    if flag then Some (Simq_fault.Injector.transient ~probability:1. ())
    else None
  in
  let faults =
    Simq_fault.Injector.create ?node_accesses:(always node)
      ?page_reads:(always page) ~seed:7 ()
  in
  Engine.create ?shards ~budget:(Budget.create ~faults ()) index

let exec_note engine spec =
  let note = Engine.note () in
  let result = Engine.exec ~note engine spec in
  (note, result)

(* The engine's fault plan reaches every shard: it rides on the budget
   each shard's attempts run under. An always-firing node plan
   degrades every executed shard to its scan (still answering); adding
   always-firing page faults fails the scan too, with the unsharded
   engine's outcome. *)
let test_injector_reaches_every_shard () =
  let index = build_index ~count:80 () in
  let spec = "RANGE FROM r QUERY s3 EPS 2.0" in
  let note, _ = exec_note (faulty_engine ~shards:3 ~node:true index) spec in
  Alcotest.(check string) "node faults: answered" "ok" note.Engine.note_outcome;
  (match note.Engine.note_shards with
  | Some c ->
    Alcotest.(check bool) "some shard executed" true (c.Qlog.fanout > 0);
    Alcotest.(check int) "every executed shard degraded" c.Qlog.fanout
      c.Qlog.degraded
  | None -> Alcotest.fail "a sharded range reports no shard counts");
  let unsharded, _ =
    exec_note (faulty_engine ~node:true ~page:true index) spec
  in
  Alcotest.(check string) "unsharded: io_failed" "io_failed"
    unsharded.Engine.note_outcome;
  let sharded, _ =
    exec_note (faulty_engine ~shards:3 ~node:true ~page:true index) spec
  in
  Alcotest.(check (pair string int)) "sharded = unsharded outcome"
    (unsharded.Engine.note_outcome, unsharded.Engine.note_exit)
    (sharded.Engine.note_outcome, sharded.Engine.note_exit)

let results_of = function
  | Ok (o : Engine.outcome) -> J.to_string o.Engine.results
  | Error _ -> Alcotest.fail "expected an answer"

(* NEAREST consults the attempt's fault plan at every node visit of its
   traversal and every priced page read of its linear selection. With
   node and page faults both firing, plain and sharded NEAREST fail
   typed; with node faults only, each shard degrades to its exact
   linear selection, while the unsharded traversal — which degrades on
   admission only — fails typed, as it does on budget exhaustion. *)
let test_nearest_sees_faults () =
  let index = build_index ~count:80 () in
  let spec = "NEAREST 3 FROM r QUERY s3" in
  List.iter
    (fun (label, shards) ->
      let note, _ =
        exec_note (faulty_engine ?shards ~node:true ~page:true index) spec
      in
      Alcotest.(check (pair string int))
        (label ^ ": node+page faults")
        ("io_failed", 4)
        (note.Engine.note_outcome, note.Engine.note_exit))
    [ ("plain", None); ("3 shards", Some 3) ];
  let plain, _ = exec_note (faulty_engine ~node:true index) spec in
  Alcotest.(check (pair string int)) "plain: node faults" ("io_failed", 4)
    (plain.Engine.note_outcome, plain.Engine.note_exit);
  let sharded, result =
    exec_note (faulty_engine ~shards:3 ~node:true index) spec
  in
  Alcotest.(check string) "3 shards: node faults answered" "ok"
    sharded.Engine.note_outcome;
  (match sharded.Engine.note_shards with
  | Some c ->
    Alcotest.(check int) "fanout" 3 c.Qlog.fanout;
    Alcotest.(check int) "every shard degraded" c.Qlog.fanout c.Qlog.degraded
  | None -> Alcotest.fail "a sharded NEAREST reports no shard counts");
  Alcotest.(check string) "degraded answers = plain engine's"
    (results_of (Engine.exec (Engine.create index) spec))
    (results_of result)

(* Index PAIRS runs its inner range queries as one attempt under the
   engine's budget, like RANGE: always-firing node faults outlast the
   retries and answer io_failed, plain and sharded alike (the index
   join reads the whole relation's k-index), and the node and
   comparison limits fail it typed. No case raises. *)
let test_index_pairs_sees_faults () =
  let index = build_index ~count:80 () in
  let spec = "PAIRS FROM r EPS 1.5 METHOD index" in
  let outcome engine =
    let note, _ = exec_note engine spec in
    (note.Engine.note_outcome, note.Engine.note_exit)
  in
  List.iter
    (fun (label, shards) ->
      Alcotest.(check (pair string int))
        (label ^ ": node faults")
        ("io_failed", 4)
        (outcome (faulty_engine ?shards ~node:true index)))
    [ ("plain", None); ("3 shards", Some 3) ];
  List.iter
    (fun (label, budget, kind) ->
      Alcotest.(check (pair string int)) label (kind, 4)
        (outcome (Engine.create ~budget index)))
    [
      ( "one node access",
        Budget.create ~max_node_accesses:1 (),
        "budget_exceeded:node_accesses" );
      ( "no comparison",
        Budget.create ~max_comparisons:0 (),
        "budget_exceeded:comparisons" );
    ]

(* On an admission engine every PAIRS method is vetted on the
   catalogue pair count before it runs: over the comparison cap, index
   PAIRS is refused as scan-early is — exit 5, rejected:comparisons,
   decision reject — and visits no node. *)
let test_pairs_admission_every_method () =
  let index = build_index ~count:80 () in
  let engine () =
    Engine.create
      ~budget:(Budget.create ~max_comparisons:10 ())
      ~admission:(Simq_admission.create
                    ~registry:(Simq_obs.Metrics.create_registry ()) ())
      index
  in
  List.iter
    (fun method_ ->
      let spec = "PAIRS FROM r EPS 2.5 METHOD " ^ method_ in
      let note =
        Simq_obs.Metrics.with_enabled true (fun () ->
            Simq_obs.Metrics.reset ();
            fst (exec_note (engine ()) spec))
      in
      Alcotest.(check (triple string int (option string)))
        (method_ ^ ": refused before execution")
        ("rejected:comparisons", 5, Some "reject")
        (note.Engine.note_outcome, note.Engine.note_exit,
         note.Engine.note_decision);
      List.iter
        (fun family ->
          Alcotest.(check int)
            (method_ ^ ": " ^ family ^ " untouched")
            0
            (Simq_obs.Metrics.counter_total
               (Simq_obs.Metrics.counter family)))
        [ "simq_rtree_node_visits_total"; "simq_join_comparisons_total" ])
    [ "scan-early"; "index" ]

let test_chaos_stream_deterministic () =
  let index = build_index () in
  let a = chaos_report index and b = chaos_report index in
  Alcotest.(check bool)
    "same seed => same workload, abuse and outcomes" true
    (a.Stress.sent = b.Stress.sent
    && a.Stress.ok = b.Stress.ok
    && a.Stress.malformed_sent = b.Stress.malformed_sent
    && a.Stress.disconnects = b.Stress.disconnects)

(* --- request-scoped correlation end to end ---------------------------------- *)

module Trace = Simq_obs.Trace

(* One served query under 4 domains and a 4-shard engine: its qlog
   line, its JSON profile root and every span it emitted carry the
   same request id — and the answer is bit-identical to the
   tracing-off offline run. *)
let test_trace_correlation_end_to_end () =
  let saved = Pool.default_domains () in
  Pool.set_default_domains 4;
  let path = Filename.temp_file "simq_serve_trace" ".qlog" in
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default_domains saved;
      Trace.set_enabled false;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let spec = "RANGE FROM r QUERY s3 EPS 2.0" in
      let index = build_index () in
      let reference = offline_results (Engine.create ~shards:4 index) spec in
      Trace.set_enabled true;
      Trace.reset ();
      let qlog = Qlog.create path in
      let engine = Engine.create ~shards:4 index in
      let served =
        with_daemon ~qlog ~engine (fun _server port ->
            let client = connect port in
            Fun.protect
              ~finally:(fun () -> Stress.Client.close client)
              (fun () ->
                Stress.Client.send_line client
                  ("profile " ^ Protocol.escape spec);
                match Stress.Client.recv_line client with
                | Some line -> Result.get_ok (J.parse line)
                | None -> Alcotest.fail "no response"))
      in
      Qlog.close qlog;
      Trace.set_enabled false;
      expect_outcome ~what:"traced query" ~outcome:"ok" ~exit_code:0 served;
      Alcotest.(check string) "answers unchanged by tracing" reference
        (match J.member "results" served with
        | Some r -> J.to_string r
        | None -> Alcotest.fail "no results in the response");
      let profile_trace =
        match J.member "profile" served with
        | Some p -> (
          match J.member "trace_id" p with
          | Some (J.Num id) -> int_of_float id
          | _ -> Alcotest.fail "profile root carries no trace_id")
        | None -> Alcotest.fail "no profile in the response"
      in
      Alcotest.(check bool) "a real request id" true (profile_trace > 0);
      let qlog_trace =
        let ic = open_in path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic);
        match !lines with
        | [ line ] -> (
          match J.member "trace_id" (Result.get_ok (J.parse line)) with
          | Some (J.Num id) -> int_of_float id
          | _ -> Alcotest.fail "qlog line carries no trace_id")
        | ls -> Alcotest.failf "expected one qlog line, got %d" (List.length ls)
      in
      Alcotest.(check int) "qlog line = profile root" profile_trace qlog_trace;
      let request_spans =
        List.filter (fun t -> t <> 0) (Trace.event_traces ())
      in
      Alcotest.(check bool) "the request recorded spans" true
        (request_spans <> []);
      List.iter
        (fun t ->
          Alcotest.(check int) "every span carries the request id"
            profile_trace t)
        request_spans)

(* --- the slow-query exemplar store over the wire ---------------------------- *)

let test_slow_command_round_trip () =
  let engine = Engine.create (build_index ()) in
  with_daemon ~slow_k:2 ~engine (fun _server port ->
      let client = connect port in
      Fun.protect
        ~finally:(fun () -> Stress.Client.close client)
        (fun () ->
          List.iter
            (fun spec ->
              expect_outcome ~what:spec ~outcome:"ok" ~exit_code:0
                (query_json client spec))
            [
              "RANGE FROM r QUERY s3 EPS 2.0";
              "NEAREST 5 FROM r QUERY s2";
              "PAIRS FROM r EPS 1.0 METHOD scan";
            ];
          Stress.Client.send_line client "slow";
          match Stress.Client.recv_line client with
          | None -> Alcotest.fail "no slow response"
          | Some line ->
            let json = Result.get_ok (J.parse line) in
            Alcotest.(check (option string)) "event" (Some "simq.serve.slow")
              (member_str "event" json);
            let slow =
              match J.member "slow" json with
              | Some s -> s
              | None -> Alcotest.fail "no slow member"
            in
            Alcotest.(check (option int)) "k echoed" (Some 2)
              (member_int "k" slow);
            let entries =
              match J.member "entries" slow with
              | Some (J.Arr l) -> l
              | _ -> Alcotest.fail "no entries array"
            in
            Alcotest.(check int) "exactly worst-k kept" 2
              (List.length entries);
            List.iter
              (fun e ->
                Alcotest.(check bool) "entry carries a request id" true
                  (match J.member "trace_id" e with
                  | Some (J.Num t) -> t > 0.
                  | _ -> false);
                Alcotest.(check bool) "entry carries a rendered tree" true
                  (match member_str "profile" e with
                  | Some p -> String.length p > 0
                  | None -> false))
              entries))

let test_slow_without_store_is_usage () =
  with_daemon (fun _server port ->
      let client = connect port in
      Fun.protect
        ~finally:(fun () -> Stress.Client.close client)
        (fun () ->
          Stress.Client.send_line client "slow";
          (match Stress.Client.recv_line client with
          | None -> Alcotest.fail "connection dropped on slow"
          | Some line ->
            expect_outcome ~what:"slow without a store" ~outcome:"usage"
              ~exit_code:1
              (Result.get_ok (J.parse line)));
          (* The connection survives the refused command. *)
          expect_outcome ~what:"after slow" ~outcome:"ok" ~exit_code:0
            (query_json client "NEAREST 2 FROM r QUERY s0")))

(* --- rotated qlog chains ---------------------------------------------------- *)

let test_rotated_chain_order () =
  let path = Filename.temp_file "simq_rotate" ".qlog" in
  let rotated = path ^ ".1" in
  let write p s =
    let oc = open_out p in
    output_string oc s;
    close_out oc
  in
  write path "newer\n";
  Alcotest.(check (list string)) "unrotated: just the file" [ path ]
    (Qlog.rotated_chain path);
  write rotated "older\n";
  Alcotest.(check (list string)) "rotated pair in stream order"
    [ rotated; path ]
    (Qlog.rotated_chain path);
  Sys.remove path;
  Sys.remove rotated;
  Alcotest.(check (list string)) "nothing on disk" []
    (Qlog.rotated_chain path)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest prop_escape_roundtrip;
          Alcotest.test_case "bad escapes rejected" `Quick
            test_unescape_rejects_bad_escapes;
          Alcotest.test_case "newlines escape to one line" `Quick
            test_escape_handles_newlines;
        ] );
      ( "serving",
        [
          Alcotest.test_case "served = offline" `Quick
            test_served_equals_offline;
          Alcotest.test_case "qlog records served queries" `Quick
            test_qlog_records_served_queries;
          Alcotest.test_case "a malformed query is refused without an engine"
            `Quick test_parse_checked_matches_exec;
          Alcotest.test_case "qlog logs a range rejection" `Quick
            test_qlog_logs_range_rejection;
          Alcotest.test_case "qlog keeps side constraints apart" `Quick
            test_qlog_keeps_side_constraints_apart;
          Alcotest.test_case "a rejected MEAN range executes nothing" `Quick
            test_rejected_mean_range_executes_nothing;
          Alcotest.test_case "one record behind every entry point" `Quick
            test_one_record_every_entry_point;
          Alcotest.test_case "query names are decimal" `Quick
            test_query_names_are_decimal;
        ] );
      ( "one-executor",
        [
          Alcotest.test_case "checked engines keep side constraints" `Quick
            test_checked_engines_keep_side_constraints;
          Alcotest.test_case "anytime partial is carried" `Quick
            test_anytime_partial_is_carried;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "malformed line" `Quick
            test_malformed_line_isolated;
          Alcotest.test_case "oversized line" `Quick
            test_oversized_line_isolated;
          Alcotest.test_case "pipelined and split request lines" `Quick
            test_pipelined_lines;
          Alcotest.test_case "mid-query disconnect" `Quick
            test_disconnect_mid_query_isolated;
        ] );
      ( "shedding",
        [
          Alcotest.test_case "typed, counted, executes nothing" `Quick
            test_shed_is_typed_and_executes_nothing;
        ] );
      ( "drain",
        [
          Alcotest.test_case "shutdown drains" `Quick
            test_shutdown_drains_and_answers;
          Alcotest.test_case "finished workers are not retained" `Quick
            test_finished_workers_not_retained;
          Alcotest.test_case "waits for an in-flight query" `Quick
            test_drain_waits_for_inflight;
        ] );
      ( "nn-admission",
        [
          Alcotest.test_case "domain-count invariant" `Quick
            test_nn_admission_domain_invariant;
          Alcotest.test_case "degradation is exact" `Quick
            test_nn_degrade_is_exact;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "survives and matches offline" `Quick
            test_chaos_survives_and_matches;
          Alcotest.test_case "survives injected faults" `Quick
            test_chaos_with_injected_faults;
          Alcotest.test_case "deterministic abuse stream" `Quick
            test_chaos_stream_deterministic;
          Alcotest.test_case "an injector reaches every shard" `Quick
            test_injector_reaches_every_shard;
          Alcotest.test_case "NEAREST sees injected faults" `Quick
            test_nearest_sees_faults;
          Alcotest.test_case "index PAIRS sees injected faults" `Quick
            test_index_pairs_sees_faults;
          Alcotest.test_case "PAIRS admission for every method" `Quick
            test_pairs_admission_every_method;
        ] );
      ( "correlation",
        [
          Alcotest.test_case "one id across qlog, profile and spans" `Quick
            test_trace_correlation_end_to_end;
        ] );
      ( "slow-store",
        [
          Alcotest.test_case "slow command round-trips" `Quick
            test_slow_command_round_trip;
          Alcotest.test_case "usage error without a store" `Quick
            test_slow_without_store_is_usage;
        ] );
      ( "qlog-rotation",
        [
          Alcotest.test_case "rotated chain order" `Quick
            test_rotated_chain_order;
        ] );
    ]
