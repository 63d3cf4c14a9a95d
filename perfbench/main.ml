(* The simq benchmark. One run measures one workload for a fixed time and
   prints, as its last line, one JSON object: whether every answer was
   correct, how many queries were attempted and failed, and the metrics
   — end to end with [--trace 0], per layer with [--trace 1].

   Usage (after [dune build perfbench/main.exe bin/simq.exe]):
     main.exe --generate --workload W --seed N
     main.exe --workload W --seed N --seconds S --trace 0|1 --simq PATH
   The first form writes the workload's relation file into .perfbench/;
   the second measures against it and deletes it. perfbench/run.py runs
   both. *)

open Perfbench
module Relation = Simq_storage.Relation
module Dataset = Simq_tsindex.Dataset
module Kindex = Simq_tsindex.Kindex
module Planner = Simq_tsindex.Planner
module Engine = Simq_serve.Engine
module Server = Simq_serve.Server
module Stress = Simq_serve.Stress
module Protocol = Simq_serve.Protocol
module Pool = Simq_parallel.Pool
module Batch = Simq_parallel.Batch
module Budget = Simq_fault.Budget
module J = Simq_obs.Json

let host = "127.0.0.1"
let clients = 2
let shards = 4

(* Set-up is repeated and its median reported; the cheap ones more
   often. *)
let setups = function
  | Inputs.Serve_mix -> 7
  | Inputs.Oneshot -> 5
  | Inputs.Batch_lookup -> 3

(* --- arguments ------------------------------------------------------------ *)

let workload = ref ""
let seed = ref Inputs.default_seed
let seconds = ref 10.
let trace = ref 0
(* Relation files and span dumps, inside the checkout. *)
let work_dir = ".perfbench"
let simq = ref ""
let generate = ref false
let flambda = ref "unknown"
let commit = ref "unknown"
let client = ref ""
let port = ref 0
let count = ref 0
let offset = ref 0

let spec_args =
  [
    ("--workload", Arg.Set_string workload, "W serve-mix | batch-lookup | oneshot");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S measured time");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ("--simq", Arg.Set_string simq, "PATH the built simq binary (oneshot)");
    ("--generate", Arg.Set generate, " write the relation file and exit");
    ("--flambda", Arg.Set_string flambda, "B stamped into the result");
    ("--commit", Arg.Set_string commit, "C stamped into the result");
    ("--client", Arg.Set_string client, "stress|pass run as the serve-mix client process");
    ("--port", Arg.Set_int port, "P the server port (--client)");
    ("--count", Arg.Set_int count, "N specs to pose (--client pass)");
    ("--offset", Arg.Set_int offset, "I first spec to pose (--client pass)");
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let relation_path w =
  Filename.concat work_dir (Printf.sprintf "%s-%d.rel" (Inputs.name w) !seed)

(* --- resident state --------------------------------------------------------- *)

(* The checked engine of serve-mix: admission plus page and node
   budgets, no deadline, so decisions depend only on counts. *)
let budget = Budget.create ~max_page_reads:200_000 ~max_node_accesses:200_000 ()

let make_engine w index =
  match w with
  | Inputs.Serve_mix ->
    Engine.create ~budget ~admission:Simq_admission.default index
  | Inputs.Batch_lookup ->
    Engine.create ~shards ~sketch:Simq_sketch.default index
  | Inputs.Oneshot -> Engine.create index

(* A planner-routed RANGE: on the checked engine it triggers the lazy
   [Planner.collect], so the first measured query finds it done. *)
let warmup_spec = "RANGE FROM r QUERY s0 EPS 1.00"

type resident = {
  dataset : Dataset.t;
  index : Kindex.t;
  engine : Engine.t;
  server : Server.t option;
}

(* From opening the relation file until the first query can be
   served. *)
let setup w ~tr =
  let sp name f = Span.with_span tr name f in
  Measure.time (fun () ->
      sp "setup" @@ fun () ->
      let relation = sp "relation.load" (fun () -> Relation.load (relation_path w)) in
      let dataset = sp "dataset.prepare" (fun () -> Dataset.of_relation relation) in
      let index = sp "kindex.build" (fun () -> Kindex.build dataset) in
      let engine = sp "engine.create" (fun () -> make_engine w index) in
      (match sp "engine.warmup" (fun () -> Engine.exec engine warmup_spec) with
      | Ok _ -> ()
      | Error e -> die "warm-up query failed: %s" (Simq_cli.message e));
      let server =
        match w with
        | Inputs.Serve_mix ->
          Some (sp "server.start" (fun () -> Server.start ~engine ~port:0 ()))
        | Inputs.Batch_lookup | Inputs.Oneshot -> None
      in
      { dataset; index; engine; server })

let stop res = Option.iter Server.stop res.server

(* The remaining set-ups, each torn down at once; returns every set-up
   time including the first. *)
let more_setups w ~tr first =
  first
  :: List.init (setups w - 1) (fun _ ->
         let res, s = setup w ~tr in
         stop res;
         s)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* --- answers ------------------------------------------------------------------ *)

let results_of = function
  | Ok (o : Engine.outcome) -> Some (J.to_string o.Engine.results)
  | Error _ -> None

(* The plain engine's answer per spec, computed once. *)
let oracle index =
  let plain = Engine.create index in
  let memo = Hashtbl.create 4096 in
  fun spec ->
    match Hashtbl.find_opt memo spec with
    | Some r -> r
    | None ->
      let r = results_of (Engine.exec plain spec) in
      Hashtbl.add memo spec r;
      r

(* --- outcome of one run --------------------------------------------------------- *)

type outcome = {
  attempted : int;
  failed : int;
  mismatches : string list;  (** one line per wrong or unverifiable answer *)
  metrics : (string * float * string) list;
  wall : (string * float * string) list;
      (** wall-clock figures, printed but not in the result: on a shared
          VM, time stolen by the hypervisor spreads them past any bound *)
}

(* One measured window: its ok queries, seconds and latencies. Each
   end-to-end figure is the median over the run's windows, so a stall
   that hits a minority of windows does not move it. *)
type window = { ok : int; secs : float; lat : float array }

(* The median over the run's windows of CPU time per ok query, from
   [(cpu seconds, ok queries)] per window. *)
let cpu_per_query windows =
  ( "cpu_ms_per_query",
    Measure.median
      (Array.of_list
         (List.map (fun (cpu, ok) -> cpu *. 1e3 /. float_of_int (max 1 ok)) windows)),
    "ms" )

let windowed ~what windows =
  let med f = Measure.median (Array.of_list (List.map f windows)) in
  let pct q w =
    let n = Array.length w.lat in
    if not (Measure.tail_ok ~n q) then
      Printf.eprintf
        "perfbench: warning: %s p%.0f from %d samples (fewer than 10 beyond)\n%!"
        what (q *. 100.) n;
    Measure.quantile w.lat q *. 1e3
  in
  [
    ("wall.qps", med (fun w -> float_of_int w.ok /. w.secs), "1/s");
    ("wall.p50_ms", med (pct 0.5), "ms");
    ("wall.p90_ms", med (pct 0.9), "ms");
  ]

(* --- serve-mix ---------------------------------------------------------------------- *)

(* The clients of serve-mix run in a child process of this program
   ([--client]), as [simq stress] runs apart from [simq serve]: client
   threads in the server's process would contend with its workers for
   the runtime lock. The child prints one JSON line. *)
let spawn_client args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close wr)
      (fun () ->
        Unix.create_process exe
          (Array.of_list
             (exe :: "--workload" :: Inputs.name Inputs.Serve_mix :: "--seed"
             :: string_of_int !seed :: "--seconds" :: string_of_float !seconds :: args))
          Unix.stdin wr Unix.stderr)
  in
  (* Lines before the last mark the client phases: this process's CPU
     time is read at each mark. *)
  let ic = Unix.in_channel_of_descr rd in
  let rec lines marks =
    match In_channel.input_line ic with
    | Some "mark" -> lines (Measure.cpu_s () :: marks)
    | Some line -> (line, List.rev marks)
    | None -> ("", List.rev marks)
  in
  let out, marks = lines [] in
  close_in ic;
  match (Unix.waitpid [] pid, J.parse (String.trim out)) with
  | (_, Unix.WEXITED 0), Ok j -> (j, marks)
  | _ -> die "the serve-mix client process failed"

(* The child's side of a mark. *)
let mark () =
  print_endline "mark";
  flush stdout

let num_member k j = match J.member k j with Some (J.Num v) -> v | _ -> 0.
let int_member k j = int_of_float (num_member k j)

let floats k j =
  match J.member k j with
  | Some (J.Arr l) -> Array.of_list (List.filter_map J.number l)
  | _ -> [||]

let strings k j =
  match J.member k j with
  | Some (J.Arr l) -> List.filter_map J.string_of l
  | _ -> []

let per_client = 128

(* Child: Stress rounds until the client phases add up to [seconds].
   Stress consults the oracle after its clients have joined; the first
   oracle call of a round therefore ends that round's client phase,
   and only client phases are timed. *)
let client_stress ~port =
  let relation = Relation.load (relation_path Inputs.Serve_mix) in
  let answer = oracle (Kindex.build (Dataset.of_relation relation)) in
  let first = ref None and unverifiable = ref [] in
  let oracle spec =
    if !first = None then begin
      first := Some (Measure.now_ns ());
      mark ()
    end;
    let r = answer spec in
    if r = None then unverifiable := ("oracle failed: " ^ spec) :: !unverifiable;
    Option.map (fun s -> match J.parse s with Ok j -> j | Error _ -> J.Null) r
  in
  let rec rounds r acc client_s =
    if client_s >= !seconds then (List.rev acc, client_s)
    else begin
      first := None;
      mark ();
      let t0 = Measure.now_ns () in
      let rep =
        Stress.run ~oracle ~host ~port ~clients ~per_client
          ~seed:(Inputs.round_seed ~seed:!seed r)
          ~cardinality:(Inputs.cardinality Inputs.Serve_mix) ()
      in
      let s =
        match !first with
        | Some t1 -> Int64.to_float (Int64.sub t1 t0) /. 1e9
        | None ->
          mark ();
          Measure.since_s t0
      in
      rounds (r + 1) ((rep, s) :: acc) (client_s +. s)
    end
  in
  let timed, client_s = rounds 0 [] 0. in
  let reps = List.map fst timed in
  let total f = List.fold_left (fun a (r : Stress.report) -> a + f r) 0 reps in
  let mismatches =
    List.concat_map
      (fun (r : Stress.report) ->
        List.map (fun (spec, d) -> spec ^ ": " ^ d) r.Stress.mismatches
        @ (if r.Stress.server_gone then [ "server gone" ] else [])
        @
        if r.Stress.protocol_errors > 0 then
          [ Printf.sprintf "%d protocol errors" r.Stress.protocol_errors ]
        else [])
      reps
    @ !unverifiable
  in
  let n v = J.Num (float_of_int v) in
  J.Obj
    [
      ("client_s", J.Num client_s);
      ("sent", n (total (fun r -> r.Stress.sent)));
      ("ok", n (total (fun r -> r.Stress.ok)));
      ( "failed",
        n (total (fun r -> r.Stress.rejected + r.Stress.failed + r.Stress.protocol_errors)) );
      ("mismatches", J.Arr (List.map (fun m -> J.Str m) mismatches));
      ( "rounds",
        J.Arr
          (List.map
             (fun ((r : Stress.report), s) ->
               J.Obj
                 [
                   ("ok", n r.Stress.ok);
                   ("secs", J.Num s);
                   ( "lat",
                     J.Arr (List.map (fun l -> J.Num l) (Array.to_list r.Stress.latencies_s)) );
                 ])
             timed) );
    ]

let serve_e2e res =
  let port = Server.port (Option.get res.server) in
  let j, marks = spawn_client [ "--client"; "stress"; "--port"; string_of_int port ] in
  (* This process's CPU time over each client phase, which the marks
     bracket: the server's cost of that round. *)
  let rec phases = function
    | a :: b :: rest -> (b -. a) :: phases rest
    | _ -> []
  in
  let rounds =
    match J.member "rounds" j with Some (J.Arr rounds) -> rounds | _ -> []
  in
  {
    attempted = int_member "sent" j;
    failed = int_member "failed" j;
    mismatches = strings "mismatches" j;
    metrics =
      [
        cpu_per_query
          (List.map2 (fun cpu r -> (cpu, int_member "ok" r)) (phases marks) rounds);
      ];
    wall =
      windowed ~what:"serve"
        (List.map
           (fun r -> { ok = int_member "ok" r; secs = num_member "secs" r; lat = floats "lat" r })
           rounds);
  }

(* --- batch-lookup ------------------------------------------------------------------- *)

let batch_exec engine ~profile:_ spec =
  Engine.exec ~pairs_pool:Pool.sequential engine spec

(* Specs per [Batch.map_timed] window: enough for a p90 with ten
   samples beyond it. *)
let batch_window = 128

(* Windows of the spec stream run until their wall times add up to
   [seconds]. *)
let batch_e2e res =
  let next = Inputs.stream Inputs.Batch_lookup ~seed:!seed in
  (* The plain, unsharded, unsketched engine over the same index. *)
  let plain = Engine.create res.index in
  let rec windows acc wall =
    if wall >= !seconds then List.rev acc
    else begin
      let specs = next batch_window in
      let c0 = Measure.cpu_s () in
      let results, s =
        Measure.time (fun () -> Batch.map_timed (batch_exec res.engine) specs)
      in
      let c = Measure.cpu_s () -. c0 in
      (* Checked at once, so the heap never holds more than one
         window's answers. *)
      let expected =
        Batch.map (fun ~profile:_ spec -> results_of (Engine.exec plain spec)) specs
      in
      let bad =
        List.filteri
          (fun i _ -> results_of results.(i).Batch.value <> expected.(i) || expected.(i) = None)
          (Array.to_list specs)
      in
      let lat =
        Array.of_list
          (List.filter_map
             (fun (r : _ Batch.timed) ->
               if Result.is_ok r.Batch.value then Some r.Batch.duration_s else None)
             (Array.to_list results))
      in
      windows
        (({ ok = Array.length lat; secs = s; lat }, Array.length specs, bad, c) :: acc)
        (wall +. s)
    end
  in
  let done_ = windows [] 0. in
  let sum f = List.fold_left (fun a w -> a + f w) 0 done_ in
  let attempted = sum (fun (_, n, _, _) -> n) and ok = sum (fun (w, _, _, _) -> w.ok) in
  {
    attempted;
    failed = attempted - ok;
    mismatches =
      List.concat_map
        (fun (_, _, bad, _) -> List.map (fun spec -> "batch answer differs: " ^ spec) bad)
        done_;
    (* One ratio over the whole run: a 128-spec window's NEAREST count,
       and so its CPU time, varies too much for a median of windows. *)
    metrics =
      [
        cpu_per_query
          [ (List.fold_left (fun a (_, _, _, c) -> a +. c) 0. done_, ok) ];
      ];
    wall = windowed ~what:"batch" (List.map (fun (w, _, _, _) -> w) done_);
  }

(* --- oneshot ---------------------------------------------------------------------------- *)

(* One cold [simq query] process; its exit status and standard
   output. *)
let run_simq spec =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close wr;
        Unix.close null)
      (fun () ->
        Unix.create_process !simq
          [| !simq; "query"; relation_path Inputs.Oneshot; spec |]
          Unix.stdin wr null)
  in
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, out)

(* The answer rows the CLI prints, as [(name, distance to 4 places)]. *)
let cli_rows out =
  match String.split_on_char '\n' out with
  | [] -> []
  | _header :: rows ->
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ name; "distance"; d ] -> Some (name, d)
        | _ -> None)
      rows

let engine_rows = function
  | Ok (o : Engine.outcome) -> (
    match J.arr o.Engine.results with
    | Some rows ->
      Some
        (List.filter_map
           (fun row ->
             match (J.member "name" row, J.member "distance" row) with
             | Some (J.Str n), Some (J.Num d) -> Some (n, Printf.sprintf "%.4f" d)
             | _ -> None)
           rows)
    | None -> None)
  | Error _ -> None

(* Enough for a p90 with ten samples beyond it. *)
let min_invocations = 110

let oneshot_invocations ~deadline =
  let next = Inputs.stream Inputs.Oneshot ~seed:!seed in
  let t0 = Measure.now_ns () in
  let rec go i acc =
    let elapsed = Measure.since_s t0 in
    if (elapsed >= !seconds && i >= min_invocations) || elapsed >= deadline then
      List.rev acc
    else
      let spec = (next 1).(0) in
      let c0 = Measure.children_cpu_s () in
      let (status, out), s = Measure.time (fun () -> run_simq spec) in
      let cpu = Measure.children_cpu_s () -. c0 in
      go (i + 1) ((spec, status, out, s, cpu) :: acc)
  in
  go 0 []

let verify_oneshot res runs =
  List.fold_left
    (fun (failed, bad) (spec, status, out, _, _) ->
      let want = engine_rows (Engine.exec res.engine spec) in
      match status with
      | Unix.WEXITED 0 when want = Some (cli_rows out) -> (failed, bad)
      | Unix.WEXITED 0 -> (failed, ("oneshot answer differs: " ^ spec) :: bad)
      | _ -> (failed + 1, ("oneshot query failed: " ^ spec) :: bad))
    (0, []) runs

let oneshot_e2e res runs =
  let failed, mismatches = verify_oneshot res runs in
  let lat = Array.of_list (List.map (fun (_, _, _, s, _) -> s) runs) in
  {
    attempted = List.length runs;
    failed;
    mismatches;
    metrics =
      [
        cpu_per_query
          (List.map
             (fun (_, status, _, _, cpu) -> (cpu, if status = Unix.WEXITED 0 then 1 else 0))
             runs);
      ];
    wall =
      windowed ~what:"oneshot"
        [ { ok = List.length runs - failed; secs = Measure.sum lat; lat } ];
  }

(* --- end to end ------------------------------------------------------------------------- *)

let end_to_end w =
  (* oneshot's processes run before this process loads anything: Linux
     counts a child's peak resident set as at least its parent's. *)
  let runs =
    match w with
    | Inputs.Oneshot -> oneshot_invocations ~deadline:(4. *. !seconds)
    | Inputs.Serve_mix | Inputs.Batch_lookup -> []
  in
  let res, first = setup w ~tr:None in
  let o =
    Fun.protect
      ~finally:(fun () -> stop res)
      (fun () ->
        match w with
        | Inputs.Serve_mix -> serve_e2e res
        | Inputs.Batch_lookup -> batch_e2e res
        | Inputs.Oneshot -> oneshot_e2e res runs)
  in
  (* This process's heap, or the peak resident set of oneshot's
     [simq query] processes. *)
  let heap =
    match w with
    | Inputs.Oneshot -> Measure.children_peak_mb ()
    | Inputs.Serve_mix | Inputs.Batch_lookup -> heap_mb ()
  in
  let setup_s = Measure.median (Array.of_list (more_setups w ~tr:None first)) in
  {
    o with
    metrics = o.metrics @ [ ("setup_s", setup_s, "s"); ("heap_mb", heap, "MB") ];
  }

(* --- traced run --------------------------------------------------------------------------- *)

(* Every per-layer metric, in report order; a layer a workload does not
   run reports 0. *)
let per_layer_units =
  [
    ("server.exec_ms.p50", "ms"); ("server.exec_ms.p99", "ms");
    ("server.wait_ms.p50", "ms"); ("server.wait_ms.p99", "ms");
    ("server.busy_share", "share"); ("protocol.render_us", "us");
    ("ql.parse_us", "us"); ("engine.resolve_us", "us");
    ("engine.exec_ms.range", "ms"); ("engine.exec_ms.nearest", "ms");
    ("engine.exec_ms.pairs", "ms"); ("engine.unattributed_ms", "ms");
    ("admission.admit_share", "share"); ("admission.degrade_share", "share");
    ("admission.reject_share", "share"); ("planner.scan_share", "share");
    ("planner.collect_s", "s");
    ("kindex.range_ms", "ms"); ("kindex.nearest_ms", "ms");
    ("kindex.nodes_per_range", "count"); ("kindex.nodes_per_nearest", "count");
    ("kindex.candidates_per_range", "count"); ("kindex.precision", "share");
    ("sketch.coarse.filtered_share", "share");
    ("sketch.segment.filtered_share", "share");
    ("sketch.bound_evals_per_query", "count");
    ("shard.fanout", "count"); ("shard.pruned_share", "share");
    ("shard.gather_overhead_ms", "ms");
    ("join.pairs_ms", "ms"); ("join.computations_per_pairs", "count");
    ("join.ns_per_computation", "ns");
    ("storage.page_reads_per_query", "count"); ("storage.hit_rate", "share");
    ("batch.busy_share", "share");
    ("relation.load_s", "s"); ("dataset.prepare_s", "s");
    ("kindex.build_s", "s"); ("sketch.create_s", "s"); ("shard.create_s", "s");
    ("oneshot.unattributed_ms", "ms");
    ("gc.minor_words_per_query", "words"); ("gc.major_per_kquery", "count");
    ("trace.overhead_share", "share");
    ("kernel.fft128_ns", "ns"); ("kernel.fft128_words", "words");
    ("kernel.euclid128_ns", "ns"); ("kernel.euclid128_words", "words");
    ("kernel.normal_form128_ns", "ns"); ("kernel.normal_form128_words", "words");
    ("kernel.scan_ns_per_series", "ns"); ("kernel.scan_words_per_series", "words");
    ("wall.qps", "1/s"); ("wall.p50_ms", "ms"); ("wall.p90_ms", "ms");
    ("wall.p99_ms", "ms"); ("error_rate", "share");
  ]

(* Queries posed untraced and again traced: on serve-mix enough for a
   p99 with ten samples beyond it. *)
let traced_queries = function
  | Inputs.Serve_mix -> 1100
  | Inputs.Batch_lookup -> 400
  | Inputs.Oneshot -> 30

(* A percentile with fewer than ten samples beyond it reports 0. *)
let tail_ms xs q =
  if Measure.tail_ok ~n:(Array.length xs) q then Measure.quantile xs q *. 1e3 else 0.


type pass = {
  wall : float;
  latencies : float array;
  answers : (string * string option) list;  (** spec, rendered results *)
  served : (string * float * J.t) list;  (** serve-mix: spec, latency, response *)
  recorders : Span.t list;
}

let join a b =
  {
    wall = a.wall +. b.wall;
    latencies = Array.append a.latencies b.latencies;
    answers = a.answers @ b.answers;
    served = a.served @ b.served;
    recorders = a.recorders @ b.recorders;
  }

(* Child: 2 closed-loop clients over the first [count] specs, each
   request a span when traced; every response comes back as text. *)
let client_pass ~port ~offset ~count ~traced =
  let specs =
    Array.sub (Inputs.stream Inputs.Serve_mix ~seed:!seed (offset + count)) offset count
  in
  let per =
    Array.init clients (fun c ->
        Array.of_list (List.filteri (fun i _ -> i mod clients = c) (Array.to_list specs)))
  in
  let recs = Array.map (fun _ -> if traced then Some (Span.create ()) else None) per in
  let got = Array.map (fun _ -> ref []) per in
  let client c () =
    let conn = Stress.Client.connect ~timeout:30. ~host ~port () in
    Fun.protect
      ~finally:(fun () -> Stress.Client.close conn)
      (fun () ->
        Array.iter
          (fun spec ->
            let tr = recs.(c) in
            let resp, lat =
              Measure.time (fun () ->
                  Span.with_request tr (fun () ->
                      Span.with_span tr "client.request" (fun () ->
                          Stress.Client.query conn spec)))
            in
            got.(c) := (spec, lat, resp) :: !(got.(c)))
          per.(c))
  in
  let (), wall =
    Measure.time (fun () ->
        List.iter Thread.join (List.init clients (fun c -> Thread.create (client c) ())))
  in
  if traced then
    Span.write
      (Span.merge (List.filter_map Fun.id (Array.to_list recs)))
      (Filename.concat work_dir
         (Printf.sprintf "trace-serve-mix-%d-clients-%d.jsonl" !seed offset));
  J.Obj
    [
      ("wall", J.Num wall);
      ( "rows",
        J.Arr
          (List.concat_map
             (fun g ->
               List.map
                 (fun (spec, lat, resp) ->
                   J.Arr
                     [
                       J.Str spec;
                       J.Num lat;
                       (match resp with Ok j -> j | Error _ -> J.Null);
                     ])
                 !g)
             (Array.to_list got)) );
    ]

let is_ok j = J.member "outcome" j = Some (J.Str "ok")

let serve_pass res ~traced ~offset specs =
  let port = Server.port (Option.get res.server) in
  let j, _ =
    spawn_client
      [
        "--client"; "pass"; "--port"; string_of_int port; "--count";
        string_of_int (Array.length specs); "--offset";
        string_of_int offset; "--trace"; (if traced then "1" else "0");
      ]
  in
  let rows =
    match J.member "rows" j with
    | Some (J.Arr rows) ->
      List.filter_map
        (function
          | J.Arr [ J.Str spec; J.Num lat; resp ] -> Some (spec, lat, resp)
          | _ -> None)
        rows
    | _ -> []
  in
  let ok = List.filter (fun (_, _, j) -> is_ok j) rows in
  {
    wall = num_member "wall" j;
    latencies = Array.of_list (List.map (fun (_, l, _) -> l) ok);
    answers =
      List.map
        (fun (spec, _, j) ->
          (spec, if is_ok j then Option.map J.to_string (J.member "results" j) else None))
        rows;
    served = ok;
    recorders = [];
  }

(* serve-mix: the response carries the server's execution time; the
   rest of the client latency is waiting. *)
let serve_layers (p : pass) =
  let exec_s = Array.of_list (List.map (fun (_, _, j) -> num_member "duration_ms" j /. 1e3) p.served) in
  let lat = Array.of_list (List.map (fun (_, l, _) -> l) p.served) in
  let wait = Array.map2 ( -. ) lat exec_s in
  (* Rendering each served response again, as the server does. *)
  let (), render_s =
    Measure.time (fun () ->
        List.iteri
          (fun seq (spec, _, j) ->
            let str k = match J.member k j with Some (J.Str s) -> Some s | _ -> None in
            ignore
              (Protocol.ok_line ~seq ~spec ~path:(str "path") ~decision:(str "decision")
                 ~answers:(int_member "answers" j)
                 ~results:(Option.value (J.member "results" j) ~default:J.Null)
                 ~duration_s:0. ()))
          p.served)
  in
  let q a p = if Array.length a = 0 then 0. else Measure.quantile a p *. 1e3 in
  [
    ("server.exec_ms.p50", q exec_s 0.5);
    ("server.exec_ms.p99", tail_ms exec_s 0.99);
    ("server.wait_ms.p50", q wait 0.5);
    ("server.wait_ms.p99", tail_ms wait 0.99);
    ("server.busy_share", Measure.sum exec_s /. p.wall);
    ( "protocol.render_us",
      Measure.ratio (render_s *. 1e6) (float_of_int (List.length p.served)) );
  ]

let batch_pass res ~traced specs =
  let recs = Array.map (fun _ -> if traced then Some (Span.create ()) else None) specs in
  let results, wall =
    Measure.time (fun () ->
        Batch.map_timed
          (fun ~profile:_ i ->
            let tr = recs.(i) in
            Span.with_request tr (fun () ->
                Span.with_span tr "batch.query" (fun () ->
                    Engine.exec ~pairs_pool:Pool.sequential res.engine specs.(i))))
          (Array.init (Array.length specs) Fun.id))
  in
  {
    wall;
    latencies = Array.map (fun (r : _ Batch.timed) -> r.Batch.duration_s) results;
    answers =
      Array.to_list (Array.mapi (fun i (r : _ Batch.timed) -> (specs.(i), results_of r.Batch.value)) results);
    served = [];
    recorders = List.filter_map Fun.id (Array.to_list recs);
  }

let oneshot_pass ~traced specs =
  let tr = if traced then Some (Span.create ()) else None in
  let runs, wall =
    Measure.time (fun () ->
        Array.map
          (fun spec ->
            Span.with_request tr (fun () ->
                Span.with_span tr "process.run" (fun () ->
                    Measure.time (fun () -> run_simq spec))))
          specs)
  in
  {
    wall;
    latencies = Array.map snd runs;
    answers =
      Array.to_list
        (Array.mapi
           (fun i ((status, out), _) ->
             ( specs.(i),
               match status with
               | Unix.WEXITED 0 ->
                 Some (String.concat ";" (List.map (fun (n, d) -> n ^ "=" ^ d) (cli_rows out)))
               | _ -> None ))
           runs);
    served = [];
    recorders = Option.to_list tr;
  }

(* oneshot: the invocation minus the in-process load, prepare, build
   and execution of the same spec. *)
let oneshot_unattributed specs =
  let tr = Some (Span.create ()) in
  let diffs =
    Array.map
      (fun spec ->
        let id = Span.new_request () in
        let (_, proc) = Measure.time (fun () -> run_simq spec) in
        let (), inproc =
          Measure.time (fun () ->
              Span.with_request ~id tr (fun () ->
                  Span.with_span tr "oneshot.inproc" (fun () ->
                      let sp name f = Span.with_span tr name f in
                      let relation =
                        sp "relation.load" (fun () -> Relation.load (relation_path Inputs.Oneshot))
                      in
                      let dataset = sp "dataset.prepare" (fun () -> Dataset.of_relation relation) in
                      let index = sp "kindex.build" (fun () -> Kindex.build dataset) in
                      ignore (sp "engine.exec" (fun () -> Engine.exec (Engine.create index) spec)))))
        in
        proc -. inproc)
      specs
  in
  (Measure.median diffs *. 1e3, Option.get tr)

let render_expected w res =
  match w with
  | Inputs.Oneshot ->
    fun spec ->
      Option.map
        (fun rows -> String.concat ";" (List.map (fun (n, d) -> n ^ "=" ^ d) rows))
        (engine_rows (Engine.exec res.engine spec))
  | Inputs.Serve_mix | Inputs.Batch_lookup -> oracle res.index

let traced_run w =
  let tr = Some (Span.create ()) in
  let res, first = setup w ~tr in
  let recorders = ref [ Option.get tr ] in
  let specs = Inputs.stream w ~seed:!seed (traced_queries w) in
  let expected = render_expected w res in
  let check (p : pass) =
    List.filter_map
      (fun (spec, got) ->
        match (got, expected spec) with
        | Some g, Some e when g = e -> None
        | _ -> Some ("traced answer differs or failed: " ^ spec))
      p.answers
  in
  let pass ~traced offset len =
    let specs = Array.sub specs offset len in
    match w with
    | Inputs.Serve_mix -> serve_pass res ~traced ~offset specs
    | Inputs.Batch_lookup -> batch_pass res ~traced specs
    | Inputs.Oneshot -> oneshot_pass ~traced specs
  in
  let body () =
    (* A short warm-up, then the two halves of the spec list untraced and
       traced in the order A B B A, so warming and drift do not favour
       either side. *)
    let n = Array.length specs in
    let h = n / 2 in
    ignore (pass ~traced:false 0 (max 1 (n / 10)));
    let u1 = pass ~traced:false 0 h in
    let t1 = pass ~traced:true 0 h in
    let t2 = pass ~traced:true h (n - h) in
    let u2 = pass ~traced:false h (n - h) in
    let plain = join u1 u2 and traced = join t1 t2 in
    recorders := traced.recorders @ !recorders;
    let mismatches = check plain @ check traced in
    let pass_layers =
      match w with
      | Inputs.Serve_mix -> serve_layers traced
      | Inputs.Batch_lookup ->
        [
          ( "batch.busy_share",
            Measure.sum traced.latencies
            /. (traced.wall *. float_of_int (Pool.default_domains ())) );
        ]
      | Inputs.Oneshot -> []
    in
    (* The layers, one query at a time, so every allocation and every
       span lands on the calling domain. *)
    let counts, probe_mismatches, unattributed_ms =
      let ctx =
        {
          Layers.dataset = res.dataset;
          index = res.index;
          engine = res.engine;
          checked =
            (match w with
            | Inputs.Serve_mix -> Some (budget, Simq_admission.default)
            | _ -> None);
          stats =
            (match w with
            | Inputs.Serve_mix ->
              Some (Span.with_span tr "planner.collect" (fun () -> Planner.collect res.dataset))
            | _ -> None);
          shards =
            Option.map
              (fun s ->
                ( s,
                  Array.init (Simq_shard.shards s) (fun i ->
                      Simq_sketch.create ~config:Simq_sketch.default
                        (Simq_shard.shard_dataset s i)) ))
              (Engine.sharded res.engine);
        }
      in
      let c = Layers.fresh () in
      let t0 = Measure.now_ns () in
      let bad = ref [] in
      Array.iteri
        (fun i spec ->
          if i < 40 || Measure.since_s t0 < !seconds /. 3. then
            if results_of (Layers.probe_one ctx c tr spec) <> expected spec
               && w <> Inputs.Oneshot
            then bad := ("probe answer differs: " ^ spec) :: !bad)
        specs;
      let un =
        match w with
        | Inputs.Oneshot ->
          let ms, r = oneshot_unattributed (Array.sub specs 0 (min 20 (Array.length specs))) in
          recorders := r :: !recorders;
          ms
        | _ -> 0.
      in
      (c, !bad, un)
    in
    let spans = Span.merge !recorders in
    (* Set-up pieces not on the workload's own path report 0. *)
    let timed name f = snd (Measure.time (fun () -> Span.with_span tr name f)) in
    let extra_setup =
      match w with
      | Inputs.Batch_lookup ->
        [
          ( "sketch.create_s",
            timed "sketch.create" (fun () ->
                ignore (Simq_sketch.create ~config:Simq_sketch.default res.dataset)) );
          ( "shard.create_s",
            timed "shard.create" (fun () ->
                ignore (Simq_shard.create ~sketch:Simq_sketch.default ~shards res.dataset)) );
        ]
      | _ -> []
    in
    let kernels = Layers.kernels res.dataset in
    ( plain,
      traced,
      pass_layers,
      mismatches @ probe_mismatches,
      Layers.metrics counts spans,
      extra_setup,
      kernels,
      unattributed_ms )
  in
  let plain, traced, pass_layers, mismatches, layer_metrics, extra_setup, kernels, unattributed_ms =
    Fun.protect ~finally:(fun () -> stop res) body
  in
  ignore (more_setups w ~tr first);
  let spans = Span.merge !recorders in
  (* Set-up spans are the ones outside any request. *)
  let setup_med name =
    match
      Array.of_list
        (List.filter_map
           (fun (s : Span.span) ->
             if s.Span.name = name && s.Span.request = 0 then
               Some (Span.duration_s s)
             else None)
           spans)
    with
    | [||] -> 0.
    | d -> Measure.median d
  in
  let collect =
    match Span.durations spans "planner.collect" with [||] -> 0. | d -> d.(0)
  in
  let attempted = Array.length specs in
  let failed = List.length (List.filter (fun (_, r) -> r = None) traced.answers) in
  Span.write spans
    (Filename.concat work_dir
       (Printf.sprintf "trace-%s-%d.jsonl" (Inputs.name w) !seed));
  let values =
    [
      ("relation.load_s", setup_med "relation.load");
      ("dataset.prepare_s", setup_med "dataset.prepare");
      ("kindex.build_s", setup_med "kindex.build");
      ("planner.collect_s", collect);
      ("oneshot.unattributed_ms", unattributed_ms);
      ("trace.overhead_share", (traced.wall /. plain.wall) -. 1.);
      ("wall.qps", float_of_int (Array.length plain.latencies) /. plain.wall);
      ("wall.p50_ms", Measure.median plain.latencies *. 1e3);
      ("wall.p90_ms", tail_ms plain.latencies 0.9);
      ("wall.p99_ms", tail_ms plain.latencies 0.99);
      ("error_rate", Measure.ratio (float_of_int failed) (float_of_int attempted));
    ]
    @ pass_layers @ extra_setup
    @ List.map (fun (n, v, _) -> (n, v)) (layer_metrics @ kernels)
  in
  {
    attempted;
    failed;
    mismatches;
    wall = [];
    metrics =
      List.map
        (fun (name, unit) ->
          (name, Option.value (List.assoc_opt name values) ~default:0., unit))
        per_layer_units;
  }

(* --- output -------------------------------------------------------------------------------- *)

let stamp w =
  let num n = J.Num (float_of_int n) in
  J.Obj
    [
      ( "stamp",
        J.Obj
          [
            ("workload", J.Str (Inputs.name w));
            ("seed", num !seed);
            ("default_seed", num Inputs.default_seed);
            ("holdout_seed", num Inputs.holdout_seed);
            ("series", num (Inputs.cardinality w));
            ("series_length", num Inputs.series_length);
            ("nproc", num (Domain.recommended_domain_count ()));
            ("pool_domains", num (Pool.default_domains ()));
            ("ocaml", J.Str Sys.ocaml_version);
            ("flambda", J.Str !flambda);
            ("commit", J.Str !commit);
            ("seconds", J.Num !seconds);
            ("trace", num !trace);
          ] );
    ]

let result ~correct o =
  J.Obj
    [
      ("correct", J.Bool correct);
      ("attempted", J.Num (float_of_int o.attempted));
      ("failed", J.Num (float_of_int o.failed));
      ( "metrics",
        J.Obj
          (if correct then
             List.map
               (fun (name, v, unit) ->
                 (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ]))
               o.metrics
           else []) );
    ]

let () =
  Arg.parse spec_args (fun a -> die "unexpected argument %S" a) "perfbench/main.exe";
  let w =
    match Inputs.of_name !workload with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  (* One domain in this process and in every process it starts: on a
     shared 2-vCPU host the default pool of nproc domains spreads the
     figures past any bound (see README.md). *)
  Pool.set_default_domains 1;
  Unix.putenv "SIMQ_DOMAINS" "1";
  if !generate then Inputs.write_relation w ~seed:!seed (relation_path w)
  else if !client <> "" then begin
    let j =
      match !client with
      | "stress" -> client_stress ~port:!port
      | "pass" ->
        client_pass ~port:!port ~offset:!offset ~count:!count ~traced:(!trace = 1)
      | c -> die "unknown client mode %S" c
    in
    print_endline (J.to_string j)
  end
  else begin
    if not (Sys.file_exists (relation_path w)) then
      die "no relation file %s (run with --generate first)" (relation_path w);
    if w = Inputs.Oneshot && not (Sys.file_exists !simq) then
      die "oneshot needs --simq PATH to the built simq binary";
    print_endline (J.to_string (stamp w));
    let o = if !trace = 1 then traced_run w else end_to_end w in
    Pool.shutdown (Pool.default ());
    (* Regenerated from the seed by every run. *)
    Sys.remove (relation_path w);
    let correct = o.mismatches = [] in
    List.iter (fun m -> prerr_endline ("perfbench: MISMATCH " ^ m)) o.mismatches;
    if correct then
      List.iter
        (fun (n, v, u) -> Printf.printf "%-32s %14.6g %s\n" n v u)
        (o.wall @ o.metrics);
    if !trace = 0 then
      Printf.printf "%-32s %14.6g share (%d failed of %d attempted)\n"
        "error_rate"
        (Measure.ratio (float_of_int o.failed) (float_of_int o.attempted))
        o.failed o.attempted;
    print_endline (J.to_string (result ~correct o));
    if not correct then exit 1
  end
