module Distance = Simq_series.Distance
module Normal_form = Simq_series.Normal_form
module Metrics = Simq_obs.Metrics
module Profile = Simq_obs.Profile

let m_path_index =
  Metrics.counter ~help:"Queries planned onto the k-index"
    "simq_planner_path_index_total"

let m_path_scan =
  Metrics.counter ~help:"Queries planned onto the sequential scan"
    "simq_planner_path_scan_total"

let m_degraded =
  Metrics.counter ~help:"Index attempts degraded to the sequential scan"
    "simq_planner_degraded_total"

let m_failures =
  Metrics.counter ~help:"Planned queries that returned a typed error"
    "simq_planner_failures_total"

type stats = {
  bucket_width : float;
  counts : int array;  (* counts.(i): distances in [i·w, (i+1)·w) *)
  total : int;
}

let collect ?(samples = 2000) ?(seed = 42) ?(buckets = 64) dataset =
  if samples <= 0 then invalid_arg "Planner.collect: samples must be positive";
  if buckets <= 0 then invalid_arg "Planner.collect: buckets must be positive";
  let n = Dataset.cardinality dataset in
  let state = Random.State.make [| seed |] in
  (* Each sampled pair's normal forms, copied and standardised in place
     in the call's own two buffers: the doubles {!Dataset.normal} would
     allocate. *)
  let a = Array.create_float (Dataset.series_length dataset)
  and b = Array.create_float (Dataset.series_length dataset) in
  let standardise id out =
    Dataset.series_into dataset id out;
    Normal_form.standardise_into out ~mean:(Dataset.mean dataset id)
      ~std:(Dataset.std dataset id) out
  in
  let distances =
    Array.init samples (fun _ ->
        let i = Random.State.int state n in
        let j = Random.State.int state n in
        standardise i a;
        standardise j b;
        Distance.euclidean a b)
  in
  let max_distance = Array.fold_left Float.max 0. distances in
  let bucket_width =
    if max_distance = 0. then 1. else max_distance /. float_of_int buckets
  in
  let counts = Array.make buckets 0 in
  Array.iter
    (fun d ->
      let idx = min (buckets - 1) (int_of_float (d /. bucket_width)) in
      counts.(idx) <- counts.(idx) + 1)
    distances;
  { bucket_width; counts; total = samples }

let histogram stats = (stats.bucket_width, Array.copy stats.counts)

let selectivity stats ~epsilon =
  if epsilon < 0. then 0.
  else begin
    let buckets = Array.length stats.counts in
    let position = epsilon /. stats.bucket_width in
    let whole = int_of_float (Float.floor position) in
    let acc = ref 0. in
    for i = 0 to min (whole - 1) (buckets - 1) do
      acc := !acc +. float_of_int stats.counts.(i)
    done;
    if whole < buckets then begin
      let fraction = position -. Float.of_int whole in
      acc := !acc +. (fraction *. float_of_int stats.counts.(whole))
    end;
    Float.min 1. (!acc /. float_of_int stats.total)
  end

let estimate_answers stats ~cardinality ~epsilon =
  selectivity stats ~epsilon *. float_of_int cardinality

type plan = Use_index | Use_scan

(* The paper's "one third of the relation" crossover. *)
let scan_threshold = 0.3

let choose stats ~cardinality ~epsilon =
  let expected = estimate_answers stats ~cardinality ~epsilon in
  let plan =
    if expected > scan_threshold *. float_of_int cardinality then Use_scan
    else Use_index
  in
  (plan, expected)

(* Count one planned query's chosen path. *)
let record_plan plan = Metrics.incr (match plan with
  | Use_index -> m_path_index
  | Use_scan -> m_path_scan)

let plan_name = function Use_index -> "index" | Use_scan -> "scan"

let pp_plan ppf plan = Format.pp_print_string ppf (plan_name plan)

(* --- resilient execution -------------------------------------------------- *)

module Budget = Simq_fault.Budget
module Error = Simq_fault.Error

type resilient_result = {
  answers : (Dataset.entry * float) list;
  executed : plan;
  degraded : bool;
  partial : bool;
  index_error : Error.t option;
  admission : Simq_admission.decision option;
}

(* Everything admission control needs is catalogue metadata plus one
   histogram lookup: producing it reads no page and visits no node. *)
let admission_workload ?stats ?(sketch_levels = 0) kindex ~epsilon =
  let dataset = Kindex.dataset kindex in
  let tree = Kindex.tree kindex in
  {
    Simq_admission.cardinality = Dataset.cardinality dataset;
    pages = Simq_storage.Relation.pages (Dataset.relation dataset);
    tree_size = Simq_rtree.Rstar.size tree;
    tree_height = Simq_rtree.Rstar.height tree;
    selectivity =
      (match stats with Some stats -> selectivity stats ~epsilon | None -> 1.);
    sketch_levels;
  }

let range_resilient ?pool ?(spec = Spec.Identity) ?mean_window ?std_band
    ?stats ?(budget = Budget.unlimited) ?admission ?sketch
    ?(sketch_levels = 0) ?approx ?profile kindex ~query ~epsilon =
  Profile.with_op profile "planner" @@ fun pn ->
  let dataset = Kindex.dataset kindex in
  let failed e =
    Metrics.incr m_failures;
    Profile.add_event pn ("error: " ^ Error.kind e);
    Error e
  in
  let plan =
    match stats with
    | Some stats ->
      Profile.with_op profile "plan" @@ fun pplan ->
      let plan, estimated =
        choose stats ~cardinality:(Dataset.cardinality dataset) ~epsilon
      in
      Profile.set_detail pplan
        (Printf.sprintf "%s est=%.1f" (plan_name plan) estimated);
      plan
    | None -> Use_index
  in
  Profile.set_detail pn (plan_name plan);
  record_plan plan;
  (* Admission control runs between planning and execution: the
     decision is made from catalogue metadata, the planner's histogram
     and the live registry — before any page is touched. *)
  let decision =
    match admission with
    | None -> None
    | Some policy ->
      Profile.with_op profile "admit" @@ fun padmit ->
      let workload = admission_workload ?stats ~sketch_levels kindex ~epsilon in
      let prefer =
        match plan with
        | Use_index -> Simq_admission.Index_path
        | Use_scan -> Simq_admission.Scan_path
      in
      let d = Simq_admission.decide policy workload ~prefer ~budget in
      Profile.set_detail padmit (Simq_admission.decision_name d);
      Some d
  in
  (* The fallback restarts the budget (range_checked derives a fresh
     state per attempt): limits bound each execution attempt, and a
     degraded query must be allowed to finish its scan. *)
  let run_scan ?index_error ~degraded () =
    match
      Seqscan.range_checked ?pool ~spec ?mean_window ?std_band ~budget
        ?profile dataset ~query ~epsilon
    with
    | Ok (r : Seqscan.result) ->
      Ok
        {
          answers = r.Seqscan.answers;
          executed = Use_scan;
          degraded;
          partial = false;
          index_error;
          admission = decision;
        }
    | Error e -> failed e
  in
  let fallback index_error =
    Metrics.incr m_degraded;
    Profile.add_event pn ("degraded: " ^ Error.kind index_error);
    run_scan ~index_error ~degraded:true ()
  in
  let run_index () =
    match
      Kindex.range_checked ~spec ?mean_window ?std_band ~budget ?sketch
        ?approx ?profile kindex ~query ~epsilon
    with
    | Ok (r : Kindex.range_result) ->
      Ok
        {
          answers = r.Kindex.answers;
          executed = Use_index;
          degraded = false;
          partial = r.Kindex.partial;
          index_error = None;
          admission = decision;
        }
    | Error e -> fallback e
  in
  match decision with
  | Some (Simq_admission.Reject reject) ->
    (* Refused before execution: not an execution failure, and no page
       was read. *)
    Profile.add_event pn "rejected by admission control";
    Error (Simq_admission.error_of_reject reject)
  | Some Simq_admission.Degrade_to_scan ->
    Metrics.incr m_degraded;
    Profile.add_event pn "degraded: admission";
    run_scan ~degraded:true ()
  | None | Some Simq_admission.Admit -> (
    match plan with
    | Use_scan -> run_scan ~degraded:false ()
    | Use_index -> run_index ())
