(** Cost-based admission control: reject over-budget queries {e before}
    execution.

    [JMM95] bounds every similarity predicate by a cost; the fault
    layer ([Simq_fault.Budget]) enforces that bound at runtime, failing
    a query {e mid-flight} once a limit is crossed. Admission control
    closes the loop the ROADMAP left open: combine the planner's
    selectivity histogram with the live metrics registry
    ([Simq_obs.Metrics]) and the query's budget into a pre-execution
    {!decision} — the query is admitted, redirected to the cheaper
    access path, or refused outright with a typed reason, before a
    single page is touched.

    The cost model:
    - the {e scan} path costs one comparison per series and one logical
      page read per series ([Simq_fault.Budget] counts buffer-pool
      touches, hits and misses alike) — both known from the catalogue,
      so scan-path decisions are exact;
    - the {e index} path costs are predicted from the planner's
      histogram selectivity;
    - the wall-clock deadline is compared against a conservative
      per-query time predicted from the [simq_timer_seconds] histogram
      (its p95 bucket upper bound, once enough queries have been
      observed).

    Decisions are a pure function of the workload description, the
    budget, and a registry snapshot: the same query against the same
    registry state yields the same decision at every
    [SIMQ_DOMAINS]/[--jobs] setting, and an {!Admit} never changes
    what the executed query returns. Every decision is counted in the
    [simq_admission_decisions_total] metric family (labelled by
    decision). {!decide_pairs} and {!shed} open an ["admit"] trace
    span; {!decide} opens none (see there). *)

(** What the optimiser knows about a query before running it — all
    catalogue metadata and one histogram estimate; producing it reads
    no page. *)
type workload = {
  cardinality : int;  (** series in the relation *)
  pages : int;  (** logical pages of the backing relation *)
  tree_size : int;  (** entries indexed by the k-index *)
  tree_height : int;  (** R*-tree levels (1 = root only) *)
  selectivity : float;
      (** the planner histogram's estimated answer fraction in [0, 1]
          ([Planner.selectivity]); use [1.] when no statistics are
          available — the scan-path costs do not depend on it *)
  sketch_levels : int;
      (** sketch-funnel levels ([Simq_sketch]) the index path will run
          in front of its exact postfilter; [0] when no funnel is
          installed. Each level is modelled as halving the candidates
          that survive to the exact comparisons (capped at four
          levels), so a funnel lowers only [index_comparisons] — bound
          evaluations read no page and are never charged. *)
}

(** The access path the planner intends to run. *)
type path = Index_path | Scan_path

(** The cost model's per-path predictions for one query. *)
type estimate = {
  scan_page_reads : int;
      (** exact: one logical buffer-pool touch per series *)
  scan_comparisons : int;  (** exact: every series, once *)
  index_node_accesses : int;  (** heuristic, from the selectivity *)
  index_comparisons : int;  (** heuristic: predicted candidate count *)
  est_query_seconds : float option;
      (** p95-style per-query seconds from [simq_timer_seconds];
          [None] until enough observations exist *)
}

type reject = {
  resource : Simq_fault.Error.resource;
  estimated : int;  (** predicted cost (milliseconds for [Wall_clock]) *)
  limit : int;  (** the budget limit it exceeds *)
}

type decision =
  | Admit  (** run the planned path unchanged *)
  | Degrade_to_scan
      (** the index path cannot finish within the budget but the
          sequential scan can: run the scan instead *)
  | Reject of reject  (** no path fits: refuse before execution *)

(** Admission policy: the registry it reads live metrics from and
    counts its decisions in. A query is admitted while every estimate
    fits its limit. *)
type t

(** [create ()] is the default policy against [Simq_obs.Metrics.default]. *)
val create : ?registry:Simq_obs.Metrics.registry -> unit -> t

val default : t

(** [estimate t w] is the cost model's prediction for [w], reading the
    timer histogram from [t]'s registry. *)
val estimate : t -> workload -> estimate

(** [decide t w ~prefer ~budget] admits, degrades or rejects the query
    before execution. An unlimited budget always admits. With
    [prefer = Scan_path] the only outcomes are [Admit] and [Reject]
    (there is nothing cheaper to degrade to). Counted in
    [simq_admission_decisions_total{decision="..."}]. Opens no span:
    the planner calls it inside its ["admit"] operator, whose bracket
    ({!Simq_obs.Profile.with_op}) opens the span, so spanning here
    would nest an ["admit"] span directly in another. The NN decision
    is timed by the [kindex.nearest] span around it; the sharded
    pre-flight's, by none of its own. *)
val decide : t -> workload -> prefer:path -> budget:Simq_fault.Budget.t -> decision

(** [decide_pairs t ~comparisons ~budget] vets a pairwise scan join
    before execution. The join performs exactly [comparisons] distance
    comparisons ([n (n - 1) / 2] for a self-join — a catalogue fact,
    not an estimate) and reads no page through the buffer pool, so
    only the comparison limit and the deadline prediction can refuse
    it; the outcomes are [Admit] and [Reject] (the scan join {e is}
    the bottom path — nothing cheaper to degrade to). An unlimited
    budget always admits. Counted in
    [simq_admission_decisions_total{decision="..."}] and spanned as
    ["admit"]. *)
val decide_pairs :
  t -> comparisons:int -> budget:Simq_fault.Budget.t -> decision

(** [shed t ~inflight ~limit] is the load-shedding rejection of a
    long-running server whose in-flight request cap is full: a
    {!reject} on the [In_flight] pseudo-resource ([inflight] requests
    against a cap of [limit]), counted in
    [simq_admission_decisions_total{decision="reject"}] like any other
    refusal and spanned as ["admit"]. The caller turns it into the
    typed error with {!error_of_reject} — before any page is read. *)
val shed : t -> inflight:int -> limit:int -> reject

(** [error_of_reject r] is the typed error a rejected query returns
    ([Simq_fault.Error.Rejected]). *)
val error_of_reject : reject -> Simq_fault.Error.t

(** ["admit"], ["degrade_to_scan"] or ["reject"] — the decision label
    used in the metric family. *)
val decision_name : decision -> string
