(* The per-layer split of the traced run. Every layer is timed from
   outside, around a call to its public entry point with the same
   inputs the workload poses; counts are read from the values those
   calls return. *)

open Perfbench
module Relation = Simq_storage.Relation
module Io_stats = Simq_storage.Io_stats
module Dataset = Simq_tsindex.Dataset
module Kindex = Simq_tsindex.Kindex
module Planner = Simq_tsindex.Planner
module Join = Simq_tsindex.Join
module Ql = Simq_tsindex.Ql
module Engine = Simq_serve.Engine
module Pool = Simq_parallel.Pool
module Budget = Simq_fault.Budget

(* What the workload's engine was built with; the replay mirrors the
   engine's routing of each query class onto one layer call. *)
type ctx = {
  dataset : Dataset.t;
  index : Kindex.t;
  engine : Engine.t;
  checked : (Budget.t * Simq_admission.t) option;
  stats : Planner.stats option;
  shards : (Simq_shard.t * Simq_sketch.t array) option;
}

type counts = {
  mutable queries : int;
  mutable decisions : string list;
  mutable ranges : int;
  mutable range_scans : int;
  mutable range_nodes : int;
  mutable range_candidates : int;
  mutable range_answers : int;
  mutable range_queries : int;
  mutable nearest_nodes : int;
  mutable nearest_queries : int;
  filtered : float array;  (** per funnel level: coarse, segment *)
  entering : float array;
  mutable bound_evals : int;
  mutable sketched : int;
  mutable fanout : int;
  mutable shard_slots : int;
  mutable pruned : int;
  mutable scattered : int;
  mutable pairs_computations : int;
  mutable pairs_queries : int;
  mutable page_reads : int;
  mutable cache_hits : int;
  mutable minor_words : float;
  mutable majors : int;
}

let fresh () =
  {
    queries = 0;
    decisions = [];
    ranges = 0;
    range_scans = 0;
    range_nodes = 0;
    range_candidates = 0;
    range_answers = 0;
    range_queries = 0;
    nearest_nodes = 0;
    nearest_queries = 0;
    filtered = [| 0.; 0. |];
    entering = [| 0.; 0. |];
    bound_evals = 0;
    sketched = 0;
    fanout = 0;
    shard_slots = 0;
    pruned = 0;
    scattered = 0;
    pairs_computations = 0;
    pairs_queries = 0;
    page_reads = 0;
    cache_hits = 0;
    minor_words = 0.;
    majors = 0;
  }

let level_slot name = if name = "coarse" then 0 else 1

(* A sketch funnel whose hooks also count into [c]. *)
let counted_funnel c sk spec query =
  match Simq_sketch.funnel sk ~spec ~query with
  | None -> None
  | Some (p : Kindex.prefilter) ->
    Some
      {
        p with
        Kindex.bound =
          (fun l e ->
            c.bound_evals <- c.bound_evals + 1;
            p.Kindex.bound l e);
        on_filtered =
          (fun l n ->
            let s = level_slot p.Kindex.levels.(l) in
            c.filtered.(s) <- c.filtered.(s) +. float_of_int n;
            p.Kindex.on_filtered l n);
      }

let counted_nn_bound c sk spec query =
  Option.map
    (fun b e ->
      c.bound_evals <- c.bound_evals + 1;
      b e)
    (Simq_sketch.nn_bound sk ~spec ~query)

let relations ctx =
  Dataset.relation ctx.dataset
  ::
  (match ctx.shards with
  | None -> []
  | Some (s, _) ->
    List.init (Simq_shard.shards s) (fun i ->
        Dataset.relation (Simq_shard.shard_dataset s i)))

let io ctx =
  List.fold_left
    (fun (r, h) rel ->
      let st = Relation.stats rel in
      (r + Io_stats.page_reads st, h + Io_stats.cache_hits st))
    (0, 0) (relations ctx)

let class_of = function
  | Ql.Range _ -> "range"
  | Ql.Nearest _ -> "nearest"
  | Ql.Pairs _ -> "pairs"

let ok_or_fail what = function
  | Ok v -> v
  | Error _ -> failwith (what ^ " failed during the layer replay")

(* The layer call the engine makes for [q], replayed from outside. *)
let replay_layer ctx c tr q series =
  let sp name f = Span.with_span tr name f in
  match (q, ctx.checked, ctx.shards) with
  | Ql.Range { spec; epsilon; mean_window; std_band; _ }, None, Some (s, _) ->
    let r =
      sp "shard.range" (fun () ->
          Simq_shard.range ~spec ?mean_window ?std_band s ~query:series
            ~epsilon)
    in
    let rep = r.Simq_shard.report in
    c.scattered <- c.scattered + 1;
    c.fanout <- c.fanout + rep.Simq_shard.fanout;
    c.pruned <- c.pruned + rep.Simq_shard.pruned;
    c.shard_slots <- c.shard_slots + rep.Simq_shard.shards
  | Ql.Range { spec; epsilon; mean_window; std_band; _ }, None, None ->
    ignore
      (sp "kindex.range" (fun () ->
           Kindex.range ~spec ?mean_window ?std_band ctx.index ~query:series
             ~epsilon))
  | Ql.Range { spec; epsilon; mean_window; std_band; _ }, Some (budget, _), _
    when Option.is_some mean_window || Option.is_some std_band ->
    ignore
      (ok_or_fail "Kindex.range_checked"
         (sp "kindex.range_checked" (fun () ->
              Kindex.range_checked ~spec ?mean_window ?std_band ~budget
                ctx.index ~query:series ~epsilon)))
  | Ql.Range { spec; epsilon; _ }, Some (budget, admission), _ ->
    let r =
      ok_or_fail "Planner.range_resilient"
        (sp "planner.range_resilient" (fun () ->
             Planner.range_resilient ~spec ~budget ?stats:ctx.stats
               ~admission ctx.index ~query:series ~epsilon))
    in
    c.ranges <- c.ranges + 1;
    if r.Planner.executed = Planner.Use_scan then
      c.range_scans <- c.range_scans + 1
  | Ql.Nearest { k; spec; _ }, None, Some (s, _) ->
    let r =
      sp "shard.nearest" (fun () -> Simq_shard.nearest ~spec s ~query:series ~k)
    in
    let rep = r.Simq_shard.nearest_report in
    c.scattered <- c.scattered + 1;
    c.fanout <- c.fanout + rep.Simq_shard.fanout;
    c.pruned <- c.pruned + rep.Simq_shard.pruned;
    c.shard_slots <- c.shard_slots + rep.Simq_shard.shards
  | Ql.Nearest { k; spec; _ }, None, None ->
    ignore
      (sp "kindex.nearest" (fun () ->
           Kindex.nearest ~spec ctx.index ~query:series ~k))
  | Ql.Nearest { k; spec; _ }, Some (budget, admission), _ ->
    ignore
      (ok_or_fail "Kindex.nearest_checked"
         (sp "kindex.nearest_checked" (fun () ->
              Kindex.nearest_checked ~spec ~budget ~admission ctx.index
                ~query:series ~k)))
  | Ql.Pairs { spec; epsilon; method_; _ }, checked, _ ->
    let r =
      match checked with
      | Some (budget, admission) ->
        ok_or_fail "Join.scan_checked"
          (sp "join.scan" (fun () ->
               Join.scan_checked ~pool:Pool.sequential ~spec
                 ~abandon:(method_ = Ql.Scan_early) ~budget ~admission
                 ctx.index ~epsilon))
      | None ->
        sp "join.scan" (fun () ->
            Join.scan_early_abandon ~pool:Pool.sequential ~spec ctx.index
              ~epsilon)
    in
    c.pairs_queries <- c.pairs_queries + 1;
    c.pairs_computations <- c.pairs_computations + r.Join.distance_computations

(* The k-index itself, with its counts: the monolithic tree, or every
   shard's own tree under that shard's sketch funnel. *)
let probe_kindex ctx c tr q series =
  let sp name f = Span.with_span tr name f in
  match (q, ctx.shards) with
  | Ql.Range { spec; epsilon; mean_window; std_band; _ }, None ->
    let r =
      sp "kindex.range" (fun () ->
          Kindex.range ~spec ?mean_window ?std_band ctx.index ~query:series
            ~epsilon)
    in
    c.range_queries <- c.range_queries + 1;
    c.range_nodes <- c.range_nodes + r.Kindex.node_accesses;
    c.range_candidates <- c.range_candidates + r.Kindex.candidates;
    c.range_answers <- c.range_answers + List.length r.Kindex.answers
  | Ql.Range { spec; epsilon; mean_window; std_band; _ }, Some (s, sketches) ->
    let alive =
      Simq_shard.survivors ~spec ?mean_window ?std_band s ~query:series
        ~epsilon
    in
    c.range_queries <- c.range_queries + 1;
    c.sketched <- c.sketched + 1;
    Array.iteri
      (fun i live ->
        if live then begin
          let index = Simq_shard.shard_index s i in
          (* Timed with the shard's own funnel, then run again with
             counting hooks, so the counting costs no span time. *)
          ignore
            (sp "kindex.range" (fun () ->
                 Kindex.range ~spec ?mean_window ?std_band
                   ~sketch:(fun query -> Simq_sketch.funnel sketches.(i) ~spec ~query)
                   index ~query:series ~epsilon));
          let before = Array.copy c.filtered in
          let r =
            Kindex.range ~spec ?mean_window ?std_band
              ~sketch:(counted_funnel c sketches.(i) spec)
              index ~query:series ~epsilon
          in
          let cand = float_of_int r.Kindex.candidates in
          c.entering.(0) <- c.entering.(0) +. cand;
          if Simq_sketch.spec_levels spec > 1 then
            c.entering.(1) <-
              c.entering.(1) +. cand -. (c.filtered.(0) -. before.(0));
          c.range_nodes <- c.range_nodes + r.Kindex.node_accesses;
          c.range_candidates <- c.range_candidates + r.Kindex.candidates;
          c.range_answers <- c.range_answers + List.length r.Kindex.answers
        end)
      alive
  | Ql.Nearest { k; spec; _ }, None ->
    let tree = Kindex.tree ctx.index in
    let n0 = Simq_rtree.Rstar.node_accesses tree in
    ignore
      (sp "kindex.nearest" (fun () ->
           Kindex.nearest ~spec ctx.index ~query:series ~k));
    c.nearest_queries <- c.nearest_queries + 1;
    c.nearest_nodes <- c.nearest_nodes + Simq_rtree.Rstar.node_accesses tree - n0
  | Ql.Nearest { k; spec; _ }, Some (s, sketches) ->
    c.nearest_queries <- c.nearest_queries + 1;
    c.sketched <- c.sketched + 1;
    for i = 0 to Simq_shard.shards s - 1 do
      let index = Simq_shard.shard_index s i in
      let tree = Kindex.tree index in
      let n0 = Simq_rtree.Rstar.node_accesses tree in
      ignore
        (sp "kindex.nearest" (fun () ->
             Kindex.nearest ~spec
               ~sketch:(counted_nn_bound c sketches.(i) spec)
               index ~query:series ~k));
      c.nearest_nodes <-
        c.nearest_nodes + Simq_rtree.Rstar.node_accesses tree - n0
    done
  | Ql.Pairs _, _ -> ()

(* One query through every layer. The engine runs the query once
   untimed first, so the timed calls all find warm caches. [exec] is the
   engine's answer for the caller's correctness check. *)
let probe_one ctx c tr spec =
  let sp name f = Span.with_span tr name f in
  let q = ok_or_fail "Ql.parse" (Ql.parse spec) in
  ignore (Engine.exec ~pairs_pool:Pool.sequential ctx.engine spec);
  Span.with_request tr @@ fun () ->
  sp "probe.query" @@ fun () ->
  let series =
    match q with
    | Ql.Range { spec = s; query; _ } | Ql.Nearest { spec = s; query; _ } ->
      ok_or_fail "resolve"
        (Engine.resolve_query_series ctx.dataset s ~name:query ~noise:0.)
    | Ql.Pairs _ -> [||]
  in
  sp "kindex.probe" (fun () -> probe_kindex ctx c tr q series);
  let note = Engine.note () in
  let r0, h0 = io ctx in
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let exec =
    sp ("engine.exec." ^ class_of q) (fun () ->
        Engine.exec ~pairs_pool:Pool.sequential ~note ctx.engine spec)
  in
  let w1 = Gc.minor_words () and m1 = (Gc.quick_stat ()).Gc.major_collections in
  let r1, h1 = io ctx in
  c.queries <- c.queries + 1;
  c.minor_words <- c.minor_words +. (w1 -. w0);
  c.majors <- c.majors + (m1 - m0);
  c.page_reads <- c.page_reads + (r1 - r0);
  c.cache_hits <- c.cache_hits + (h1 - h0);
  Option.iter (fun d -> c.decisions <- d :: c.decisions) note.Engine.note_decision;
  sp "replay" (fun () ->
      let q = ok_or_fail "Ql.parse" (sp "ql.parse" (fun () -> Ql.parse spec)) in
      match q with
      | Ql.Range { spec = s; query; _ } | Ql.Nearest { spec = s; query; _ } ->
        let series =
          ok_or_fail "resolve"
            (sp "engine.resolve" (fun () ->
                 Engine.resolve_query_series ctx.dataset s ~name:query
                   ~noise:0.))
        in
        replay_layer ctx c tr q series
      | Ql.Pairs _ -> replay_layer ctx c tr q [||]);
  exec

(* --- derived metrics ---------------------------------------------------- *)

(* Per request: the summed duration of the spans named [name] whose
   parent is named [under] (any parent when omitted). *)
let per_request ?under spans name =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Span.span) -> Hashtbl.replace by_id s.Span.id s) spans;
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (s : Span.span) ->
      let parent_ok =
        match under with
        | None -> true
        | Some u -> (
          match Hashtbl.find_opt by_id s.Span.parent with
          | Some p -> p.Span.name = u
          | None -> false)
      in
      if s.Span.name = name && parent_ok then
        Hashtbl.replace tbl s.Span.request
          (Span.duration_s s
          +. Option.value ~default:0. (Hashtbl.find_opt tbl s.Span.request)))
    spans;
  tbl

let values tbl = Array.of_seq (Hashtbl.to_seq_values tbl)
let med_or_zero xs = if Array.length xs = 0 then 0. else Measure.median xs
let mean_or_zero xs = if Array.length xs = 0 then 0. else Measure.mean xs

(* The engine's unattributed time: its execution minus the replayed
   parse, resolve and layer call of the same request. *)
let unattributed spans =
  let self = Span.self_times spans in
  let replay = Hashtbl.create 256 and exec = Hashtbl.create 256 in
  List.iter
    (fun (s : Span.span) ->
      if s.Span.name = "replay" then
        Hashtbl.replace replay s.Span.request (Span.duration_s s -. self s)
      else if String.starts_with ~prefix:"engine.exec." s.Span.name then
        Hashtbl.replace exec s.Span.request (Span.duration_s s))
    spans;
  Array.of_seq
    (Seq.filter_map
       (fun (r, e) ->
         Option.map (fun parts -> e -. parts) (Hashtbl.find_opt replay r))
       (Hashtbl.to_seq exec))

let metrics c spans =
  let ms = 1e3 and us = 1e6 in
  let dur name = Span.durations spans name in
  let share part whole = Measure.ratio part whole in
  let decision d =
    share
      (float_of_int (List.length (List.filter (( = ) d) c.decisions)))
      (float_of_int (List.length c.decisions))
  in
  let kindex name =
    values (per_request ~under:"kindex.probe" spans name)
  in
  let shard_overhead =
    let whole = per_request spans "shard.range" in
    let parts = per_request ~under:"kindex.probe" spans "kindex.range" in
    Array.of_seq
      (Seq.filter_map
         (fun (r, w) -> Option.map (fun p -> w -. p) (Hashtbl.find_opt parts r))
         (Hashtbl.to_seq whole))
  in
  let pairs = dur "join.scan" in
  let n = float_of_int (max 1 c.queries) in
  [
    ("ql.parse_us", mean_or_zero (dur "ql.parse") *. us, "us");
    ("engine.resolve_us", mean_or_zero (dur "engine.resolve") *. us, "us");
    ("engine.exec_ms.range", med_or_zero (dur "engine.exec.range") *. ms, "ms");
    ( "engine.exec_ms.nearest",
      med_or_zero (dur "engine.exec.nearest") *. ms,
      "ms" );
    ("engine.exec_ms.pairs", med_or_zero (dur "engine.exec.pairs") *. ms, "ms");
    ("engine.unattributed_ms", med_or_zero (unattributed spans) *. ms, "ms");
    ("admission.admit_share", decision "admit", "share");
    ("admission.degrade_share", decision "degrade_to_scan", "share");
    ("admission.reject_share", decision "reject", "share");
    ( "planner.scan_share",
      share (float_of_int c.range_scans) (float_of_int c.ranges),
      "share" );
    ("kindex.range_ms", med_or_zero (kindex "kindex.range") *. ms, "ms");
    ("kindex.nearest_ms", med_or_zero (kindex "kindex.nearest") *. ms, "ms");
    ( "kindex.nodes_per_range",
      share (float_of_int c.range_nodes) (float_of_int c.range_queries),
      "count" );
    ( "kindex.nodes_per_nearest",
      share (float_of_int c.nearest_nodes) (float_of_int c.nearest_queries),
      "count" );
    ( "kindex.candidates_per_range",
      share (float_of_int c.range_candidates) (float_of_int c.range_queries),
      "count" );
    ( "kindex.precision",
      share (float_of_int c.range_answers) (float_of_int c.range_candidates),
      "share" );
    ("sketch.coarse.filtered_share", share c.filtered.(0) c.entering.(0), "share");
    ( "sketch.segment.filtered_share",
      share c.filtered.(1) c.entering.(1),
      "share" );
    ( "sketch.bound_evals_per_query",
      share (float_of_int c.bound_evals) (float_of_int c.sketched),
      "count" );
    ( "shard.fanout",
      share (float_of_int c.fanout) (float_of_int c.scattered),
      "count" );
    ( "shard.pruned_share",
      share (float_of_int c.pruned) (float_of_int c.shard_slots),
      "share" );
    ("shard.gather_overhead_ms", med_or_zero shard_overhead *. ms, "ms");
    ("join.pairs_ms", med_or_zero pairs *. ms, "ms");
    ( "join.computations_per_pairs",
      share (float_of_int c.pairs_computations) (float_of_int c.pairs_queries),
      "count" );
    ( "join.ns_per_computation",
      share (Measure.sum pairs *. 1e9) (float_of_int c.pairs_computations),
      "ns" );
    ("storage.page_reads_per_query", float_of_int c.page_reads /. n, "count");
    ( "storage.hit_rate",
      share (float_of_int c.cache_hits) (float_of_int (c.cache_hits + c.page_reads)),
      "share" );
    ("gc.minor_words_per_query", c.minor_words /. n, "words");
    ("gc.major_per_kquery", float_of_int c.majors *. 1000. /. n, "count");
  ]

(* --- kernels ------------------------------------------------------------ *)

(* ns/op (median of five timed batches) and minor words/op of [f]. *)
let kernel ~iters f =
  for _ = 1 to iters / 10 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let batch () =
    let w0 = Gc.minor_words () in
    let t0 = Measure.now_ns () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    let s = Measure.since_s t0 in
    (s *. 1e9 /. float_of_int iters, (Gc.minor_words () -. w0) /. float_of_int iters)
  in
  let runs = Array.init 5 (fun _ -> batch ()) in
  (Measure.median (Array.map fst runs), Measure.median (Array.map snd runs))

let kernels dataset =
  let n = Inputs.series_length in
  let a = (Dataset.get dataset 0).Dataset.series in
  let b = (Dataset.get dataset 1).Dataset.series in
  let fft_ns, fft_w = kernel ~iters:2000 (fun () -> Simq_dsp.Fft.fft_real a) in
  let eu_ns, eu_w =
    kernel ~iters:200_000 (fun () -> Simq_series.Distance.euclidean a b)
  in
  let nf_ns, nf_w =
    kernel ~iters:20_000 (fun () -> Simq_series.Normal_form.normalise a)
  in
  let card = float_of_int (Dataset.cardinality dataset) in
  let scan_ns, scan_w =
    kernel ~iters:10 (fun () ->
        Simq_tsindex.Seqscan.range_full ~pool:Pool.sequential dataset ~query:a
          ~epsilon:1.0)
  in
  assert (Array.length a = n);
  [
    ("kernel.fft128_ns", fft_ns, "ns");
    ("kernel.fft128_words", fft_w, "words");
    ("kernel.euclid128_ns", eu_ns, "ns");
    ("kernel.euclid128_words", eu_w, "words");
    ("kernel.normal_form128_ns", nf_ns, "ns");
    ("kernel.normal_form128_words", nf_w, "words");
    ("kernel.scan_ns_per_series", scan_ns /. card, "ns");
    ("kernel.scan_words_per_series", scan_w /. card, "words");
  ]

