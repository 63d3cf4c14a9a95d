module Distance = Simq_series.Distance
module Metrics = Simq_obs.Metrics
module Otrace = Simq_obs.Trace
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
  let entries = Dataset.entries dataset in
  let n = Array.length entries in
  let state = Random.State.make [| seed |] in
  let distances =
    Array.init samples (fun _ ->
        let i = Random.State.int state n in
        let j = Random.State.int state n in
        Distance.euclidean entries.(i).Dataset.normal entries.(j).Dataset.normal)
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

let choose ?(scan_threshold = 0.3) stats ~cardinality ~epsilon =
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

type counters = {
  mutable queries : int;
  mutable index_attempts : int;
  mutable degraded : int;
  mutable retries : int;
  mutable failures : int;
  mutable rejected : int;
}

let create_counters () =
  {
    queries = 0;
    index_attempts = 0;
    degraded = 0;
    retries = 0;
    failures = 0;
    rejected = 0;
  }

let degradation_rate c =
  if c.queries = 0 then 0. else float_of_int c.degraded /. float_of_int c.queries

let pp_counters ppf c =
  Format.fprintf ppf
    "queries=%d index_attempts=%d degraded=%d retries=%d failures=%d \
     rejected=%d"
    c.queries c.index_attempts c.degraded c.retries c.failures c.rejected

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
    ?stats ?(budget = Budget.unlimited) ?retry ?counters ?(validate = false)
    ?admission ?sketch ?(sketch_levels = 0) ?approx ?anytime ?profile kindex
    ~query ~epsilon =
  let bump f = match counters with Some c -> f c | None -> () in
  bump (fun c -> c.queries <- c.queries + 1);
  let pn = Profile.enter profile "planner" in
  Fun.protect ~finally:(fun () -> Profile.leave profile pn) @@ fun () ->
  let on_retry ~attempt =
    Profile.add_event pn (Printf.sprintf "retry: attempt %d abandoned" attempt);
    bump (fun c -> c.retries <- c.retries + 1)
  in
  let dataset = Kindex.dataset kindex in
  let scan () =
    Seqscan.range_checked ?pool ~spec ?mean_window ?std_band ~budget ?retry
      ~on_retry ?profile dataset ~query ~epsilon
  in
  let failed e =
    bump (fun c -> c.failures <- c.failures + 1);
    Metrics.incr m_failures;
    Profile.add_event pn ("error: " ^ Error.kind e);
    Error e
  in
  let plan =
    match stats with
    | Some stats ->
      let pplan = Profile.enter profile "plan" in
      let plan, estimated =
        Otrace.with_span "plan" (fun () ->
            choose stats ~cardinality:(Dataset.cardinality dataset) ~epsilon)
      in
      Profile.set_detail pplan
        (Printf.sprintf "%s est=%.1f" (plan_name plan) estimated);
      Profile.leave profile pplan;
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
      let padmit = Profile.enter profile "admit" in
      let workload = admission_workload ?stats ~sketch_levels kindex ~epsilon in
      let prefer =
        match plan with
        | Use_index -> Simq_admission.Index_path
        | Use_scan -> Simq_admission.Scan_path
      in
      let d = Simq_admission.decide policy workload ~prefer ~budget in
      Profile.set_detail padmit (Simq_admission.decision_name d);
      Profile.leave profile padmit;
      Some d
  in
  (* The fallback restarts the budget (range_checked derives a fresh
     state per attempt): limits bound each execution attempt, and a
     degraded query must be allowed to finish its scan. *)
  let fallback index_error =
    bump (fun c -> c.degraded <- c.degraded + 1);
    Metrics.incr m_degraded;
    Profile.add_event pn ("degraded: " ^ Error.kind index_error);
    match scan () with
    | Ok (r : Seqscan.result) ->
      Ok
        {
          answers = r.Seqscan.answers;
          executed = Use_scan;
          degraded = true;
          partial = false;
          index_error = Some index_error;
          admission = decision;
        }
    | Error e -> failed e
  in
  let run_scan ~degraded =
    match scan () with
    | Ok (r : Seqscan.result) ->
      Ok
        {
          answers = r.Seqscan.answers;
          executed = Use_scan;
          degraded;
          partial = false;
          index_error = None;
          admission = decision;
        }
    | Error e -> failed e
  in
  let run_index () =
    if validate && not (Simq_rtree.Check.is_valid (Kindex.tree kindex)) then
      fallback (Error.Index_unusable { reason = "R-tree invariant check failed" })
    else begin
      bump (fun c -> c.index_attempts <- c.index_attempts + 1);
      match
        Kindex.range_checked ~spec ?mean_window ?std_band ~budget ?retry
          ~on_retry ?sketch ?approx ?anytime ?profile kindex ~query ~epsilon
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
    end
  in
  match decision with
  | Some (Simq_admission.Reject reject) ->
    (* Refused before execution: not an execution failure, so only the
       rejection counter moves, and no page was read. *)
    bump (fun c -> c.rejected <- c.rejected + 1);
    Profile.add_event pn "rejected by admission control";
    Error (Simq_admission.error_of_reject reject)
  | Some Simq_admission.Degrade_to_scan ->
    bump (fun c -> c.degraded <- c.degraded + 1);
    Metrics.incr m_degraded;
    Profile.add_event pn "degraded: admission";
    run_scan ~degraded:true
  | None | Some Simq_admission.Admit -> (
    match plan with Use_scan -> run_scan ~degraded:false | Use_index -> run_index ())
