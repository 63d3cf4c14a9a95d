(** A small cost-based planner for range queries: Figure 12 shows the
    index winning only while the answer set is a minority of the
    relation, so a system should pick the access path from the
    predicted answer-set size. The prediction comes from an equi-width
    histogram of sampled pairwise normal-form distances. *)

type stats

(** [collect ?samples ?seed ?buckets dataset] samples pairwise distances
    between normal forms ([samples] pairs, default 2000) into an
    equi-width histogram (default 64 buckets). *)
val collect : ?samples:int -> ?seed:int -> ?buckets:int -> Dataset.t -> stats

(** [histogram stats] is the bucket width [w] and a copy of the counts:
    count [i] is the number of sampled distances in [[i·w, (i+1)·w)],
    the last bucket also holding those beyond it. *)
val histogram : stats -> float * int array

(** [selectivity stats ~epsilon] is the estimated fraction of series
    within [epsilon] of a typical query, in [0, 1]; monotone in
    [epsilon], linear interpolation inside buckets. *)
val selectivity : stats -> epsilon:float -> float

type plan = Use_index | Use_scan

(** [choose stats ~cardinality ~epsilon] picks the access path: scan
    when the expected answer fraction exceeds 0.3 (the paper's “one
    third of the relation” crossover). Returns the plan and the
    expected answer count, the selectivity scaled by [cardinality]. *)
val choose : stats -> cardinality:int -> epsilon:float -> plan * float

val pp_plan : Format.formatter -> plan -> unit

(** {2 Resilient execution}

    The degradation path of the fault layer: run the planned access
    path under a {!Simq_fault.Budget} with bounded retries, and when
    the {e index} path fails — budget exhausted, transient faults
    outlasting every retry, or a failed {!Simq_rtree.Check} validation
    — fall back to the sequential scan for that query. Both paths are
    exact, so a degraded query still returns the Lemma 1 answer; only
    cost changes. The registry counts every outcome:
    [simq_planner_path_index_total]/[simq_planner_path_scan_total] per
    plan, [simq_planner_degraded_total] per fallback,
    [simq_planner_failures_total] per executed query that returned
    [Error], [simq_fault_retries_total] per abandoned attempt and
    [simq_admission_decisions_total] per admission decision. *)

type resilient_result = {
  answers : (Dataset.entry * float) list;
  executed : plan;  (** the path that produced the answers *)
  degraded : bool;
      (** the scan answered in place of the planned index path — either
          the index path failed mid-flight, or admission control
          predicted it would and redirected before execution *)
  partial : bool;
      (** the index path ran in approximate mode ([?approx]) and its
          budget died inside exact verification: the answers are a
          sound subset (see {!Kindex.range_result}). Always [false] on
          the scan path *)
  index_error : Simq_fault.Error.t option;
      (** why the index path was abandoned mid-flight, when [degraded];
          [None] for an admission-time [Degrade_to_scan] (nothing ran) *)
  admission : Simq_admission.decision option;
      (** the admission decision, when an [admission] policy was given *)
}

(** [range_resilient kindex ?stats ?budget ?admission ~query ~epsilon]
    plans ([Use_index] when [stats] is omitted), executes under
    [budget] (default unlimited) with {!Simq_fault.Retry}'s bounded
    retries, and degrades index failures (budget exhaustion, persistent
    faults) to the scan. Each execution attempt gets a fresh budget
    state — in particular the fallback scan restarts the budget, so a
    degraded query can still complete. [Error] is returned only when
    the fallback itself fails. [pool] feeds the scan path's domain
    pool.

    When [admission] is given, {!Simq_admission.decide} runs between
    planning and execution, on catalogue metadata and the planner
    histogram only — before any page is read. [Admit] leaves the run
    unchanged (bit-identical answers to the same call without
    [admission]); [Degrade_to_scan] runs the scan directly; [Reject]
    returns [Error (Simq_fault.Error.Rejected _)] without executing
    anything (not counted as a failure: nothing ran).

    With [?profile] ({!Simq_obs.Profile}) the query records a
    [planner] operator node — [plan] and [admit] children annotated
    with the chosen path and the admission decision, the index path's
    retry events and degradation events, and the executed access
    path's own node below it (a scan records its own retries on its
    [seqscan.range] node). The profile never changes answers, counters
    or decisions. The
    planner logs nothing: a query's log line is built from
    [Simq_serve.Engine]'s request record.

    [?sketch]/[?approx] thread the {!Kindex} sketch funnel (and the
    anytime mode an approximation brings) into the index path only — the fallback scan is always exact and
    full, so a degraded query keeps the Lemma 1 answer even in
    approximate mode (a superset of the approximate answers, every one
    true). [?sketch_levels] feeds the funnel's level count into the
    admission workload so the cost model discounts the exact
    comparisons the funnel saves; it defaults to [0] and never changes
    what an executed path returns.

    [?mean_window]/[?std_band] are {!Kindex.range}'s side constraints,
    applied by whichever path executes: the index tests them on its
    mean/std dimensions, the scan on each entry
    ({!Seqscan.range_checked}), so a degraded answer stays the index
    answer bit for bit. Planning and admission see the unconstrained
    selectivity, an upper bound on the constrained one. *)
val range_resilient :
  ?pool:Simq_parallel.Pool.t ->
  ?spec:Spec.t ->
  ?mean_window:float ->
  ?std_band:float ->
  ?stats:stats ->
  ?budget:Simq_fault.Budget.t ->
  ?admission:Simq_admission.t ->
  ?sketch:(Dataset.query -> Kindex.prefilter option) ->
  ?sketch_levels:int ->
  ?approx:float ->
  ?profile:Simq_obs.Profile.t ->
  Kindex.t ->
  query:Simq_series.Series.t ->
  epsilon:float ->
  (resilient_result, Simq_fault.Error.t) Result.t
