module Budget = Simq_fault.Budget
module Dataset = Simq_tsindex.Dataset
module Kindex = Simq_tsindex.Kindex
module Planner = Simq_tsindex.Planner
module Join = Simq_tsindex.Join
module Ql = Simq_tsindex.Ql
module Spec = Simq_tsindex.Spec
module Qlog = Simq_obs.Qlog
module Metrics = Simq_obs.Metrics
module Trace = Simq_obs.Trace
module Clock = Simq_obs.Clock
module Pool = Simq_parallel.Pool
module J = Simq_obs.Json

let ( let* ) = Result.bind
let usage msg = Error (Simq_cli.Usage msg)

type t = {
  index : Kindex.t;
  dataset : Dataset.t;
  noise : float;
  budget : Budget.t;  (* unlimited on a plain engine *)
  admission : Simq_admission.t option;
  sharded : Simq_shard.t option;
  sketch : Simq_sketch.t option;  (* a monolithic engine's sketch table *)
  approx : float option;
  mutable stats : Planner.stats option;
}

let create ?(noise = 0.) ?(budget = Budget.unlimited) ?admission ?shards
    ?sketch ?approx index =
  (match approx with
  | Some a when (not (Float.is_finite a)) || a < 0. || a >= 1. ->
    invalid_arg "Engine.create: approx must be in [0, 1)"
  | _ -> ());
  {
    index;
    dataset = Kindex.dataset index;
    noise;
    budget;
    admission;
    sharded =
      Option.map
        (fun k ->
          Simq_obs.Trace.with_span "shard" (fun () ->
              Simq_shard.create ?sketch ~shards:k (Kindex.dataset index)))
        shards;
    sketch =
      (* A sharded engine answers every range from its shards' own
         tables, so only a monolithic one builds the whole relation's. *)
      (match shards with
      | Some _ -> None
      | None ->
        Option.map
          (fun config ->
            Simq_obs.Trace.with_span "sketch" (fun () ->
                Simq_sketch.create ~config (Kindex.dataset index)))
          sketch);
    approx;
    stats = None;
  }

let sharded t = t.sharded

(* A monolithic engine's funnel builder; sharded engines carry
   their own per-shard tables inside {!Simq_shard}. NN queries take no
   sketch: the k-index queues them under its own head bound. *)
let funnel t spec =
  Option.map (fun sk query -> Simq_sketch.funnel sk ~spec ~query) t.sketch

let sketch_levels t spec =
  if Option.is_some t.sketch then Simq_sketch.spec_levels spec else 0

let stats t =
  match t.stats with
  | Some s -> s
  | None ->
    let s = Planner.collect t.dataset in
    t.stats <- Some s;
    s

let digest text = String.sub (Digest.to_hex (Digest.string text)) 0 12

let resolve_query_series dataset spec ~name ~noise =
  let n = Dataset.series_length dataset in
  (* [s] and decimal digits only: [int_of_string] alone would also
     read [0x1f], [1_0] and [0b11]. *)
  let digits =
    if name = "" then "" else String.sub name 1 (String.length name - 1)
  in
  let* id =
    match int_of_string_opt digits with
    | Some id
      when String.starts_with ~prefix:"s" name
           && String.for_all (fun c -> c >= '0' && c <= '9') digits ->
      if id < Dataset.cardinality dataset then Ok id
      else usage (Printf.sprintf "series id %d out of range" id)
    | _ -> usage (Printf.sprintf "bad query name %S (expected sN)" name)
  in
  let base = Dataset.series dataset id in
  let series =
    if noise > 0. then
      Simq_workload.Queries.perturb (Random.State.make [| 17 |]) base
        ~amount:noise
    else base
  in
  match spec with
  | Spec.Warp m -> Ok (Simq_series.Warp.expand m series)
  | _ ->
    assert (Spec.output_length spec ~n = n);
    Ok series

type note = {
  mutable note_spec : string;
  mutable note_digest : string option;
  mutable note_trace : int option;
  mutable note_path : string option;
  mutable note_decision : string option;
  mutable note_shards : Qlog.shard_counts option;
  mutable note_partial : bool;
  mutable note_duration_s : float;
  mutable note_outcome : string;
  mutable note_exit : int;
}

let note () =
  {
    note_spec = "";
    note_digest = None;
    note_trace = None;
    note_path = None;
    note_decision = None;
    note_shards = None;
    note_partial = false;
    note_duration_s = 0.;
    note_outcome = "ok";
    note_exit = 0;
  }

(* Computed at most once per request, and only when a view asks for
   it: a query with no log or slow store open pays no digest. *)
let note_digest note =
  match note.note_digest with
  | Some d -> d
  | None ->
    let d = digest note.note_spec in
    note.note_digest <- Some d;
    d

(* A rejection is recorded as the admission decision [reject] even
   when the path reports it only through its error. *)
let settle note ~duration_s result =
  note.note_duration_s <- duration_s;
  match result with
  | Ok _ -> ()
  | Error e ->
    (match e with
    | Simq_cli.Fault (Simq_fault.Error.Rejected _) ->
      note.note_decision <- Some "reject"
    | _ -> ());
    let outcome, code = Simq_cli.outcome_of_error e in
    note.note_outcome <- outcome;
    note.note_exit <- code

let refuse note ~trace ~spec e =
  note.note_spec <- spec;
  note.note_trace <- Some trace;
  settle note ~duration_s:0. (Error (Simq_cli.Fault e))

let note_decision note d =
  note.note_decision <- Option.map Simq_admission.decision_name d

(* Per-shard admission decisions fold into one logged decision:
   reject > degrade_to_scan > admit (a query with one degraded and
   three admitted shards logs as degraded). *)
let decision_rank = function
  | Simq_admission.Admit -> 0
  | Simq_admission.Degrade_to_scan -> 1
  | Simq_admission.Reject _ -> 2

let note_report note (r : Simq_shard.report) =
  note.note_shards <-
    Some
      {
        Qlog.fanout = r.Simq_shard.fanout;
        pruned = r.Simq_shard.pruned;
        degraded = r.Simq_shard.degraded;
      };
  note_decision note
    (Array.fold_left
       (fun worst d ->
         match (worst, d) with
         | Some w, Some d when decision_rank d > decision_rank w -> Some d
         | None, d | d, None -> d
         | Some _, Some _ -> worst)
       None r.Simq_shard.admission)

type outcome = { partial : bool; answers : int; results : J.t }

let answers_json dataset answers =
  J.Arr
    (List.map
       (fun (id, d) ->
         J.Obj
           [
             ("id", J.Num (float_of_int id));
             ("name", J.Str (Dataset.name dataset id));
             ("distance", J.Num d);
           ])
       answers)

let pairs_json dataset pairs =
  J.Arr
    (List.map
       (fun (i, j) ->
         J.Obj
           [
             ("a", J.Str (Dataset.name dataset i));
             ("b", J.Str (Dataset.name dataset j));
           ])
       pairs)

let finish ?(partial = false) note ~answers ~results =
  note.note_partial <- partial;
  Ok { partial; answers; results }

let fault e = Error (Simq_cli.Fault e)

(* One route per query class and engine shape: every query runs the
   checked entry point of its physical strategy, and a plain engine is
   the one whose budget is unlimited and which has no admission
   policy. *)
let exec_parsed ?profile ?pairs_pool ~note t text =
  let* q = Result.map_error (fun m -> Simq_cli.Usage m) (Ql.parse text) in
  match q with
  | Ql.Range { spec; query; epsilon; mean_window; std_band; _ } -> (
    let* series =
      resolve_query_series t.dataset spec ~name:query ~noise:t.noise
    in
    match t.sharded with
    | Some sharded -> (
      note.note_path <- Some "shard";
      match
        Simq_shard.range_checked ~spec ?mean_window ?std_band ~budget:t.budget
          ?admission:t.admission ?approx:t.approx ?profile sharded
          ~query:series ~epsilon
      with
      | Ok r ->
        note_report note r.Simq_shard.report;
        finish ~partial:r.Simq_shard.partial note
          ~answers:(List.length r.Simq_shard.answers)
          ~results:(answers_json t.dataset r.Simq_shard.answers)
      | Error e -> fault e)
    | None -> (
      let stats = Option.map (fun _ -> stats t) t.admission in
      match
        Planner.range_resilient ~spec ?mean_window ?std_band ~budget:t.budget
          ?stats ?admission:t.admission ?sketch:(funnel t spec)
          ~sketch_levels:(sketch_levels t spec) ?approx:t.approx ?profile
          t.index ~query:series ~epsilon
      with
      | Ok (r : Planner.resilient_result) ->
        note.note_path <-
          Some (Format.asprintf "%a" Planner.pp_plan r.Planner.executed);
        note_decision note r.Planner.admission;
        finish ~partial:r.Planner.partial note
          ~answers:(List.length r.Planner.answers)
          ~results:(answers_json t.dataset r.Planner.answers)
      | Error e -> fault e))
  | Ql.Nearest { k; spec; query; _ } -> (
    let* series =
      resolve_query_series t.dataset spec ~name:query ~noise:t.noise
    in
    match t.sharded with
    | Some sharded -> (
      note.note_path <- Some "shard";
      match
        Simq_shard.nearest_checked ~spec ~budget:t.budget
          ?admission:t.admission ?profile sharded ~query:series ~k
      with
      | Ok r ->
        note_report note r.Simq_shard.nearest_report;
        finish note
          ~answers:(List.length r.Simq_shard.neighbours)
          ~results:(answers_json t.dataset r.Simq_shard.neighbours)
      | Error e -> fault e)
    | None -> (
      note.note_path <- Some "index";
      match
        Kindex.nearest_checked ~spec ~budget:t.budget ?admission:t.admission
          ?profile t.index ~query:series ~k
      with
      | Ok r ->
        note_decision note r.Kindex.admission;
        if r.Kindex.admission = Some Simq_admission.Degrade_to_scan then
          note.note_path <- Some "scan";
        finish note
          ~answers:(List.length r.Kindex.neighbours)
          ~results:(answers_json t.dataset r.Kindex.neighbours)
      | Error e -> fault e))
  | Ql.Pairs { spec; epsilon; method_; _ } -> (
    let result =
      match method_ with
      (* Admission (when the engine has a policy) decides from the
         catalogue pair count before any series is materialised or any
         node visited. *)
      | Ql.Index ->
        note.note_path <- Some "index";
        Join.index ~spec ~budget:t.budget ?admission:t.admission ?profile
          t.index ~epsilon
      | Ql.Scan_full | Ql.Scan_early ->
        note.note_path <- Some "scan";
        Join.scan_checked ?pool:pairs_pool ~spec
          ~abandon:(method_ = Ql.Scan_early) ~budget:t.budget
          ?admission:t.admission ?profile t.index ~epsilon
    in
    match result with
    | Ok (r : Join.result) ->
      note_decision note r.Join.admission;
      finish note
        ~answers:(List.length r.Join.pairs)
        ~results:(pairs_json t.dataset r.Join.pairs)
    | Error e -> fault e)

let qlog_entry ?(deltas = []) note =
  {
    Qlog.spec = note.note_spec;
    digest = note_digest note;
    decision = note.note_decision;
    path = note.note_path;
    deltas;
    duration_s = note.note_duration_s;
    outcome = note.note_outcome;
    exit_code = note.note_exit;
    domains = Pool.domains (Pool.default ());
    shards = note.note_shards;
    trace_id = note.note_trace;
  }

(* The record, qlog line and error handling of one query whose body is
   [run]. *)
let recorded ~qlog ~profile note text run =
  note.note_spec <- text;
  note.note_trace <-
    (match Trace.current_request () with 0 -> None | id -> Some id);
  (* The one central stamping point: a profile built inside a request
     scope carries the request id on its JSON root, correlating it
     with the query's qlog line and trace spans. *)
  (match (profile, note.note_trace) with
  | Some p, Some id -> Simq_obs.Profile.set_trace p id
  | _ -> ());
  (* The qlog's counter deltas bracket two global registry snapshots,
     valid while the caller serialises execution. *)
  let bracket = Option.map (fun log -> (log, Metrics.snapshot ())) qlog in
  let t0 = Clock.now_ns () in
  let result =
    match run () with
    | r -> Ok r
    | exception Invalid_argument msg -> Ok (usage msg)
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let duration_s = Clock.elapsed_s t0 in
  (match result with
  | Ok r -> settle note ~duration_s r
  | Error _ ->
    note.note_duration_s <- duration_s;
    note.note_outcome <- "fault";
    note.note_exit <- 4);
  (match bracket with
  | Some (log, before) ->
    Qlog.log log
      (qlog_entry
         ~deltas:(Qlog.counter_deltas ~before ~after:(Metrics.snapshot ()))
         note)
  | None -> ());
  match result with
  | Ok r -> r
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let exec ?qlog ?profile ?pairs_pool ?note:n t text =
  let note = match n with Some n -> n | None -> note () in
  recorded ~qlog ~profile note text (fun () ->
      exec_parsed ?profile ?pairs_pool ~note t text)

let parse_checked ~qlog text =
  match Ql.parse text with
  | Ok _ -> Ok ()
  | Error m ->
    recorded ~qlog ~profile:None (note ()) text (fun () -> usage m)
    |> Result.map ignore

let batch ?profiles ?qlog t texts =
  let n = Array.length texts in
  (* Request ids are pre-allocated in sequence order on this domain,
     so qlog trace ids are a pure function of the batch — identical
     at every pool size. Each task binds its id domain-locally: a
     batch query runs wholly on one pool domain, and concurrent tasks
     must not overwrite each other's ambient id. *)
  let requests = Array.init n (fun _ -> Trace.new_request_id ()) in
  let notes = Array.init n (fun _ -> note ()) in
  let results =
    Simq_parallel.Batch.map ?profiles
      (fun ~profile i ->
        Trace.with_request ~global:false requests.(i) (fun () ->
            exec ?profile ~pairs_pool:Pool.sequential ~note:notes.(i) t
              texts.(i)))
      (Array.init n Fun.id)
  in
  (* Logged after the batch, in query order on this domain, so qlog
     sampling stays a pure function of the sequence number at every
     pool size. Per-query counter deltas are not separable under
     parallel execution, so the deltas stay empty. *)
  Option.iter
    (fun log -> Array.iter (fun note -> Qlog.log log (qlog_entry note)) notes)
    qlog;
  Array.map2 (fun note r -> (note, r)) notes results
