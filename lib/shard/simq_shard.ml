module Dataset = Simq_tsindex.Dataset
module Kindex = Simq_tsindex.Kindex
module Spec = Simq_tsindex.Spec
module Seqscan = Simq_tsindex.Seqscan
module Planner = Simq_tsindex.Planner
module Feature = Simq_tsindex.Feature
module Relation = Simq_storage.Relation
module Rect = Simq_geometry.Rect
module Rstar = Simq_rtree.Rstar
module Pool = Simq_parallel.Pool
module Budget = Simq_fault.Budget
module Metrics = Simq_obs.Metrics
module Profile = Simq_obs.Profile

let m_queries =
  Metrics.counter ~help:"Scatter-gather queries executed over sharded relations"
    "simq_shard_queries_total"

let m_fanout =
  Metrics.counter ~help:"Shards executed by scatter-gather queries"
    "simq_shard_fanout_total"

let m_pruned =
  Metrics.counter
    ~help:"Shards pruned by their catalogue box before touching any page"
    "simq_shard_pruned_total"

let m_degraded =
  Metrics.counter ~help:"Shards answered by their own per-shard scan"
    "simq_shard_degraded_total"

type shard = {
  ordinal : int;
  lo : int;  (* first global id owned, inclusive *)
  hi : int;  (* past the last, exclusive *)
  sdataset : Dataset.t;  (* own relation, hence own buffer pool *)
  sindex : Kindex.t;  (* own R*-tree *)
  box : Rect.t;  (* catalogue: min/max box of the shard's feature points *)
  ssketch : Simq_sketch.t option;  (* own sketch table, over local ids *)
  mutable sstats : Planner.stats option;  (* per-shard calibration, lazy *)
  m_executed : Metrics.counter;  (* this shard's labelled metrics child *)
  sname : string;  (* its operator's name, [shard.i] *)
}

type t = { parent : Dataset.t; parts : shard array }

let create ?(config = Feature.default) ?(max_fill = 32) ?sketch ~shards dataset
    =
  if shards < 1 then invalid_arg "Simq_shard.create: shards must be >= 1";
  let n = Dataset.cardinality dataset in
  let k = Int.min shards n in
  let name = Relation.name (Dataset.relation dataset) in
  let base = n / k and rem = n mod k in
  let mk ordinal =
    let lo = (ordinal * base) + Int.min ordinal rem in
    let width = base + if ordinal < rem then 1 else 0 in
    let sdataset =
      Dataset.sub dataset ~name:(Printf.sprintf "%s/shard%d" name ordinal) ~lo
        ~width
    in
    let sindex = Kindex.build ~config ~max_fill sdataset in
    (* The root MBR is the min/max over the shard's feature points. *)
    let box = (Rstar.root (Kindex.tree sindex)).Simq_rtree.Node.mbr in
    {
      ordinal;
      lo;
      hi = lo + width;
      sdataset;
      sindex;
      box;
      ssketch =
        Option.map (fun config -> Simq_sketch.create ~config sdataset) sketch;
      sstats = None;
      m_executed =
        Metrics.counter ~help:"Queries executed against this shard"
          ~labels:[ ("shard", string_of_int ordinal) ]
          "simq_shard_executed_total";
      sname = Printf.sprintf "shard.%d" ordinal;
    }
  in
  { parent = dataset; parts = Array.init k mk }

let shards t = Array.length t.parts
let dataset t = t.parent
let bounds t i = (t.parts.(i).lo, t.parts.(i).hi)
let shard_index t i = t.parts.(i).sindex
let shard_dataset t i = t.parts.(i).sdataset

type report = {
  shards : int;
  fanout : int;
  pruned : int;
  degraded : int;
  admission : Simq_admission.decision option array;
}

(* Shard ids are local (dense 0..width-1); global id = lo + local. A
   shard's relation is a view of the parent's rows for its id range, so
   a shard id shifted names the parent's entry: the answers equal an
   unsharded query's. *)
let globalise s answers = List.map (fun (id, d) -> (s.lo + id, d)) answers

let probe_of ?spec ?mean_window ?std_band t ~query ~epsilon =
  (* Any shard's index carries the config and series length shared by
     all of them; the probe itself is tree-independent. *)
  Kindex.range_probe ?spec ?mean_window ?std_band
    t.parts.(0).sindex ~query ~epsilon

let survivors ?spec ?mean_window ?std_band t ~query ~epsilon =
  let probe = probe_of ?spec ?mean_window ?std_band t ~query ~epsilon in
  Array.map (fun s -> probe s.box) t.parts

type range_result = {
  answers : (int * float) list;
  candidates : int;
  node_accesses : int;
  partial : bool;
  report : report;
}

(* What the gather learns about one shard of the scatter. *)
type 'a run = {
  r_payload : 'a;
  r_rows : int;  (* per-shard answers before the merge *)
  r_candidates : int;
  r_nodes : int;
  r_scan : bool;  (* answered by the shard's own scan *)
  r_partial : bool;  (* this shard's anytime verification was cut short *)
  r_profile : Profile.t option;  (* NN: the shard task's own profile *)
}

(* The per-shard sketch funnel builder: the shard's own sketch table
   over its own (local-id) dataset, or nothing when the executor was
   built without sketches. NN takes no sketch: each shard's k-index
   queues entries under its own head bound. *)
let sketch_spec spec = Option.value spec ~default:Spec.Identity

let shard_funnel ?spec s =
  Option.map
    (fun sk query -> Simq_sketch.funnel sk ~spec:(sketch_spec spec) ~query)
    s.ssketch

(* An NN run leaves its candidates and nodes at 0: the shard's NN
   operator node in its own profile (the scan's when the shard was
   answered by its scan) lends [shard.i] its counts instead — the
   entries keyed as rows in, the refinements as candidates and the
   node expansions as pages. *)
let copy_counts ~scan pc sp =
  match
    Profile.find sp (if scan then "kindex.nearest-scan" else "kindex.nearest")
  with
  | None -> ()
  | Some node ->
    Profile.add_rows_in pc (Profile.rows_in node);
    Profile.add_candidates pc (Profile.candidates node);
    Profile.add_pages pc (Profile.pages node)

(* A shard abandoned by both its index path and its fallback scan: the
   typed error surfaces as the whole query's (deterministically —
   {!scatter} raises the lowest shard's). *)
exception Shard_failed of Simq_fault.Error.t

(* One pool task per shard of [parts], every one submitted (the
   caller runs one like any domain), each outcome kept in place. *)
let fan_out ?pool task parts =
  Array.of_list
    (Pool.map_chunks ?pool ~chunk:1 ~n:(Array.length parts) (fun ~lo ~hi:_ ->
         try Ok (task parts.(lo)) with e -> Error e))

(* The fan-out, [execute] giving every shard's outcome in shard order,
   under the [shard.scatter] operator; then the metrics and each
   shard's [shard.i] node, on the coordinating domain once every task
   is back (deterministic at every domain count; a [shard.i] node
   times only that bookkeeping). The failure of the lowest shard is
   raised, as a sequential run would raise it first; a failed fan-out
   records its error on the [shard.scatter] node, as an unsharded
   operator does on its own. *)
let scatter ?profile t ~op ~decisions execute =
  Profile.with_op profile "shard.scatter" @@ fun ps ->
  let runs =
    Array.map
      (function
        | Ok r -> r
        | Error (Shard_failed e as exn) ->
          Profile.add_event ps ("error: " ^ Simq_fault.Error.kind e);
          raise exn
        | Error exn -> raise exn)
      (execute ())
  in
  let k = Array.length t.parts in
  let fanout = ref 0 and degraded = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some r ->
        incr fanout;
        if r.r_scan then incr degraded)
    runs;
  let report =
    {
      shards = k;
      fanout = !fanout;
      pruned = k - !fanout;
      degraded = !degraded;
      admission = decisions;
    }
  in
  Metrics.incr m_queries;
  Metrics.add m_fanout report.fanout;
  Metrics.add m_pruned report.pruned;
  Metrics.add m_degraded report.degraded;
  Profile.set_detail ps
    (Printf.sprintf "%s shards=%d fanout=%d pruned=%d degraded=%d" op
       report.shards report.fanout report.pruned report.degraded);
  Array.iter2
    (fun s r ->
      if Option.is_some r then Metrics.incr s.m_executed;
      Profile.with_op profile s.sname @@ fun pc ->
      match r with
      | None -> Profile.set_detail pc "pruned"
      | Some r ->
        Profile.set_detail pc (if r.r_scan then "scan" else "index");
        Profile.add_pages pc r.r_nodes;
        Profile.add_candidates pc r.r_candidates;
        Option.iter (copy_counts ~scan:r.r_scan pc) r.r_profile;
        Profile.add_rows_out pc r.r_rows)
    t.parts runs;
  (runs, report)

(* The merge of the per-shard payloads, under the [shard.gather]
   operator: rows in are the per-shard answers, rows out the merged
   ones. *)
let gather ?profile ~op runs merge =
  Profile.with_op profile "shard.gather" @@ fun pg ->
  Profile.set_detail pg op;
  let merged =
    merge
      (List.concat_map
         (function None -> [] | Some r -> r.r_payload)
         (Array.to_list runs))
  in
  Profile.add_rows_in pg
    (Array.fold_left
       (fun acc -> function None -> acc | Some r -> acc + r.r_rows)
       0 runs);
  Profile.add_rows_out pg (List.length merged);
  merged

let gather_range ?profile (runs, report) =
  (* Contiguous id blocks in shard order: concatenation is already
     globally sorted by entry id, like the unsharded traversal. *)
  let answers = gather ?profile ~op:"range" runs Fun.id in
  let candidates =
    Array.fold_left
      (fun acc -> function None -> acc | Some r -> acc + r.r_candidates)
      0 runs
  and node_accesses =
    Array.fold_left
      (fun acc -> function None -> acc | Some r -> acc + r.r_nodes)
      0 runs
  in
  let partial =
    Array.exists (function None -> false | Some r -> r.r_partial) runs
  in
  { answers; candidates; node_accesses; partial; report }

(* The per-shard range calibration: the shard's own sampled histogram,
   collected at most once (from the coordinating domain, during the
   admission pre-flight). *)
let shard_stats s =
  match s.sstats with
  | Some stats -> stats
  | None ->
    let stats = Planner.collect s.sdataset in
    s.sstats <- Some stats;
    stats

let shard_workload s ~selectivity ~sketch_levels =
  {
    Simq_admission.cardinality = Dataset.cardinality s.sdataset;
    pages = Relation.pages (Dataset.relation s.sdataset);
    tree_size = Rstar.size (Kindex.tree s.sindex);
    tree_height = Rstar.height (Kindex.tree s.sindex);
    selectivity;
    sketch_levels;
  }

(* Decide every surviving shard before any of them executes, in shard
   order, each against its own workload description. Returns the first
   rejection, or the per-shard decisions. *)
let preflight ?admission ~budget ~keep ~selectivity ~sketch_levels t =
  match admission with
  | None -> Ok (Array.map (fun _ -> None) t.parts)
  | Some policy ->
    let decisions =
      Array.map
        (fun s ->
          if not keep.(s.ordinal) then None
          else
            Some
              (Simq_admission.decide policy
                 (shard_workload s ~selectivity:(selectivity s)
                    ~sketch_levels:(sketch_levels s))
                 ~prefer:Simq_admission.Index_path ~budget))
        t.parts
    in
    (match
       Array.find_map
         (function Some (Simq_admission.Reject r) -> Some r | _ -> None)
         decisions
     with
    | Some r -> Error (Simq_admission.error_of_reject r)
    | None -> Ok decisions)

let range_checked ?pool ?spec ?mean_window ?std_band
    ?(budget = Budget.unlimited) ?admission ?approx ?profile t ~query ~epsilon =
  let probe = probe_of ?spec ?mean_window ?std_band t ~query ~epsilon in
  let keep = Array.map (fun s -> probe s.box) t.parts in
  (* The unconstrained selectivity: an upper bound under side
     constraints. *)
  let selectivity s = Planner.selectivity (shard_stats s) ~epsilon in
  let sketch_levels s =
    if Option.is_some s.ssketch then Simq_sketch.spec_levels (sketch_spec spec)
    else 0
  in
  match preflight ?admission ~budget ~keep ~selectivity ~sketch_levels t with
  | Error e -> Error e
  | Ok decisions ->
    let scan s =
      (* The shard's own degradation path: exact, over the shard's
         dataset and buffer pool, sequential within the shard (the
         scatter already owns the pool's domains). *)
      match
        Seqscan.range_checked ~pool:Pool.sequential ?spec ?mean_window
          ?std_band ~budget s.sdataset ~query ~epsilon
      with
      | Ok r ->
        {
          r_payload = globalise s r.Seqscan.answers;
          r_rows = List.length r.Seqscan.answers;
          r_candidates = Dataset.cardinality s.sdataset;
          r_nodes = 0;
          r_scan = true;
          r_partial = false;
          r_profile = None;
        }
      | Error e -> raise (Shard_failed e)
    in
    (* One task per surviving shard; a task touches only its own
       shard's tree and buffer pool, so tasks share no mutable state
       and the per-shard results are position-stable. *)
    let task s =
      if not keep.(s.ordinal) then None
      else
        Some
          (match decisions.(s.ordinal) with
          | Some Simq_admission.Degrade_to_scan -> scan s
          | _ -> (
            match
              Kindex.range_checked ?spec ?mean_window ?std_band ~budget
                ?sketch:(shard_funnel ?spec s) ?approx s.sindex ~query
                ~epsilon
            with
            | Ok r ->
              {
                r_payload = globalise s r.Kindex.answers;
                r_rows = List.length r.Kindex.answers;
                r_candidates = r.Kindex.candidates;
                r_nodes = r.Kindex.node_accesses;
                r_scan = false;
                r_partial = r.Kindex.partial;
                r_profile = None;
              }
            | Error _ -> scan s))
    in
    (try
       Ok
         (gather_range ?profile
            (scatter ?profile t ~op:"range" ~decisions (fun () ->
                 fan_out ?pool task t.parts)))
     with Shard_failed e -> Error e)

(* The unbudgeted forms are the checked ones with no admission and an
   unlimited budget, which carries no fault plan: no error is left. *)
let unbudgeted = function
  | Ok r -> r
  | Error e -> failwith (Simq_fault.Error.to_string e)

let range ?pool ?spec ?mean_window ?std_band ?approx ?profile t ~query
    ~epsilon =
  unbudgeted
    (range_checked ?pool ?spec ?mean_window ?std_band ?approx ?profile t
       ~query ~epsilon)

type nearest_result = {
  neighbours : (int * float) list;
  nearest_report : report;
}

(* The canonical NN order: distance first, entry id breaking ties —
   the order the degraded linear selection uses, deterministic at
   every K and domain count. *)
let by_distance (a, da) (b, db) =
  match Float.compare da db with 0 -> Int.compare a b | c -> c

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let gather_nearest ?profile ~op ~k (runs, report) =
  (* Union of per-shard top-k contains the global top-k (each shard's
     list is exact for its entries); the k-way merge is a sort in
     canonical order over at most K·k pairs. *)
  let neighbours =
    gather ?profile ~op runs (fun all -> take k (List.sort by_distance all))
  in
  { neighbours; nearest_report = report }

let nn_run s ~sp ~scan answers =
  {
    r_payload = globalise s answers;
    r_rows = List.length answers;
    r_candidates = 0;
    r_nodes = 0;
    r_scan = scan;
    r_partial = false;
    r_profile = sp;
  }

let nearest_checked ?pool ?spec ?(budget = Budget.unlimited) ?admission
    ?profile t ~query ~k =
  if k <= 0 then invalid_arg "Simq_shard.nearest: k must be positive";
  let keep = Array.map (fun _ -> true) t.parts in
  let selectivity s =
    let cardinality = Dataset.cardinality s.sdataset in
    Float.min 1. (float_of_int k /. float_of_int cardinality)
  in
  (* NN takes no sketch, so the admission cost model sees no sketch
     discount — decisions are identical with and without sketches. *)
  let sketch_levels _ = 0 in
  match preflight ?admission ~budget ~keep ~selectivity ~sketch_levels t with
  | Error e -> Error e
  | Ok decisions ->
    (* The query is prepared once, for the probe and every shard: the
       shards share one series length and feature configuration. *)
    let r =
      Kindex.nearest_query t.parts.(0).sindex
        (Option.value spec ~default:Spec.Identity)
        query
    in
    (* A profiled query gives every shard task a private profile, so
       no two domains record into one tree; the gather copies its
       counts into [shard.i] on the coordinating domain. *)
    let task ~within s =
      let sp = Option.map (fun _ -> Profile.create ()) profile in
      let scan () =
        match
          Kindex.nearest_scan s.sindex r ~budget ~profile:sp ~k
        with
        | Ok answers -> nn_run s ~sp ~scan:true answers
        | Error e -> raise (Shard_failed e)
      in
      Some
        (match decisions.(s.ordinal) with
        | Some Simq_admission.Degrade_to_scan -> scan ()
        | _ -> (
          match
            Kindex.nearest_prepared s.sindex r ~budget ~within ~profile:sp ~k
          with
          | Ok neighbours -> nn_run s ~sp ~scan:false neighbours
          | Error _ -> scan ()))
    in
    (* The seed: the shard whose catalogue box is nearest the query by
       the traversal's own node bound, the lowest ordinal on ties,
       chosen before any shard runs. Its k-th distance, when it finds
       k answers, seeds the others' traversals. *)
    let seed =
      let probe = Kindex.nearest_bound t.parts.(0).sindex r in
      let bounds = Array.map (fun s -> probe s.box) t.parts in
      let best = ref 0 in
      Array.iteri (fun i b -> if b < bounds.(!best) then best := i) bounds;
      !best
    in
    (* The seed runs as a pool task of its own, so every shard still
       counts one task. *)
    let execute () =
      let lead =
        (fan_out ?pool (task ~within:infinity) [| t.parts.(seed) |]).(0)
      in
      let within =
        match lead with
        | Ok (Some r) when r.r_rows >= k -> snd (List.nth r.r_payload (k - 1))
        | _ -> infinity
      in
      let rest =
        fan_out ?pool (task ~within)
          (Array.of_list
             (List.filter (fun s -> s.ordinal <> seed) (Array.to_list t.parts)))
      in
      Array.init (Array.length t.parts) (fun i ->
          if i < seed then rest.(i) else if i = seed then lead else rest.(i - 1))
    in
    let op = Printf.sprintf "nearest k=%d" k in
    (try
       Ok
         (gather_nearest ?profile ~op ~k
            (scatter ?profile t ~op ~decisions execute))
     with Shard_failed e -> Error e)

let nearest ?pool ?spec ?profile t ~query ~k =
  unbudgeted (nearest_checked ?pool ?spec ?profile t ~query ~k)
