module Metrics = Simq_obs.Metrics
module Otrace = Simq_obs.Trace
module Budget = Simq_fault.Budget
module Error = Simq_fault.Error

type workload = {
  cardinality : int;
  pages : int;
  tree_size : int;
  tree_height : int;
  selectivity : float;
  sketch_levels : int;
}

type path = Index_path | Scan_path

type estimate = {
  scan_page_reads : int;
  scan_comparisons : int;
  index_node_accesses : int;
  index_comparisons : int;
  est_query_seconds : float option;
}

type reject = {
  resource : Error.resource;
  estimated : int;
  limit : int;
}

type decision = Admit | Degrade_to_scan | Reject of reject

type t = {
  h_timer : Metrics.histogram;
  m_admit : Metrics.counter;
  m_degrade : Metrics.counter;
  m_reject : Metrics.counter;
}

let create ?registry () =
  let decision d =
    Metrics.counter ?registry
      ~help:"Admission decisions, by outcome"
      ~labels:[ ("decision", d) ]
      "simq_admission_decisions_total"
  in
  {
    (* Retrieve-or-register: the timer owns this when it is linked in;
       an isolated registry simply reads zeroes. *)
    h_timer = Metrics.histogram ?registry "simq_timer_seconds";
    m_admit = decision "admit";
    m_degrade = decision "degrade_to_scan";
    m_reject = decision "reject";
  }

let default = create ()

(* A conservative per-query wall-clock prediction: the p95 bucket
   upper bound of [simq_timer_seconds], once at least 8 timed queries
   have been observed. Integer bucket counts and fixed bucket bounds,
   so the prediction is deterministic for a given registry snapshot. *)
let predicted_seconds t =
  let buckets = Metrics.histogram_buckets t.h_timer in
  let count = Array.fold_left ( + ) 0 buckets in
  if count < 8 then None
  else begin
    let target = count - (count / 20) in
    let rec go i cumulative =
      if i >= Array.length buckets then
        Metrics.bucket_upper (Array.length buckets - 1)
      else begin
        let cumulative = cumulative + buckets.(i) in
        if cumulative >= target then Metrics.bucket_upper i
        else go (i + 1) cumulative
      end
    in
    Some (go 0 0)
  end

let ceil_pos v = if v <= 0. then 0 else int_of_float (Float.ceil v)

let estimate t w =
  let sel = Float.min 1. (Float.max 0. w.selectivity) in
  {
    (* The scan compares every series exactly once, and the budget
       counts page reads as logical buffer-pool touches (hits and
       misses alike, one per entry) — so both scan costs equal the
       cardinality: catalogue facts, not estimates. *)
    scan_page_reads = w.cardinality;
    scan_comparisons = w.cardinality;
    (* Index heuristics: a root-to-leaf descent plus a visited-node
       share and a candidate set proportional to the estimated
       selectivity (feature-space candidates exceed true answers, hence
       the factor 2 margin). *)
    index_node_accesses =
      w.tree_height + ceil_pos (sel *. float_of_int w.tree_size /. 4.);
    (* Each sketch-funnel level is modelled as halving the candidates
       that reach the exact postfilter: bound evaluations read no page
       and are not charged as comparisons, so the funnel only lowers
       the comparison estimate (capped at four levels so a bogus count
       cannot zero it out). *)
    index_comparisons =
      (let discount = 1 lsl Int.min 4 (Int.max 0 w.sketch_levels) in
       ceil_pos (2. *. sel *. float_of_int w.cardinality /. float_of_int discount));
    est_query_seconds = predicted_seconds t;
  }

let ms_of_seconds s = ceil_pos (s *. 1000.)

(* The budget limit of [resource] that [estimated] crosses, if any. *)
let violation budget resource estimated =
  match Budget.limit budget resource with
  | Some limit when estimated > limit -> Some { resource; estimated; limit }
  | _ -> None

(* The first violation of a path, in a fixed resource order, so the
   rejection reason is deterministic. *)
let first_violation candidates =
  List.fold_left
    (fun acc c -> match acc with Some _ -> acc | None -> c)
    None candidates

(* The deadline against a predicted per-query time, when both exist. *)
let deadline_violation budget predicted =
  match (Budget.deadline budget, predicted) with
  | Some deadline, Some predicted when predicted > deadline ->
    Some
      {
        resource = Error.Wall_clock;
        estimated = ms_of_seconds predicted;
        limit = ms_of_seconds deadline;
      }
  | _ -> None

let decide_pure t w ~prefer ~budget =
  if Budget.is_unlimited budget then Admit
  else begin
    let e = estimate t w in
    let scan_reject =
      first_violation
        [
          violation budget Error.Page_reads e.scan_page_reads;
          violation budget Error.Comparisons e.scan_comparisons;
        ]
    in
    let index_reject =
      first_violation
        [
          violation budget Error.Node_accesses e.index_node_accesses;
          violation budget Error.Comparisons e.index_comparisons;
        ]
    in
    match deadline_violation budget e.est_query_seconds with
    | Some r -> Reject r
    | None -> (
      match prefer with
      | Scan_path -> (
        match scan_reject with None -> Admit | Some r -> Reject r)
      | Index_path -> (
        match index_reject with
        | None -> Admit
        | Some _ -> (
          match scan_reject with
          | None -> Degrade_to_scan
          | Some r -> Reject r)))
  end

(* Every decision is counted by outcome. *)
let counted t decision =
  Metrics.incr
    (match decision with
    | Admit -> t.m_admit
    | Degrade_to_scan -> t.m_degrade
    | Reject _ -> t.m_reject);
  decision

(* Not spanned here: the planner decides inside its [admit] operator,
   whose bracket opens the span of that name. *)
let decide t w ~prefer ~budget = counted t (decide_pure t w ~prefer ~budget)

(* The pairwise join costs [n (n - 1) / 2] comparisons — a catalogue
   fact, like the scan costs — and reads no page (it runs over the
   resident spectra), so only the comparison limit and the deadline
   prediction can refuse it, and there is no cheaper path to degrade
   to. *)
let decide_pairs t ~comparisons ~budget =
  Otrace.with_span "admit" @@ fun () ->
  counted t
  @@
  if Budget.is_unlimited budget then Admit
  else
    match
      first_violation
        [
          deadline_violation budget (predicted_seconds t);
          violation budget Error.Comparisons comparisons;
        ]
    with
    | Some r -> Reject r
    | None -> Admit

let shed t ~inflight ~limit =
  Otrace.with_span "admit" @@ fun () ->
  Metrics.incr t.m_reject;
  { resource = Error.In_flight; estimated = inflight; limit }

let error_of_reject { resource; estimated; limit } =
  Error.Rejected { resource; estimated; limit }

let decision_name = function
  | Admit -> "admit"
  | Degrade_to_scan -> "degrade_to_scan"
  | Reject _ -> "reject"
