(** Sequential-scan baselines (Section 5, Figures 10–11).

    Scans run over the relation of Fourier coefficients, not the raw
    series: the DFT packs most of the energy into the first
    coefficients, so the early-abandoning variant can dismiss most
    sequences after a few terms. Page traffic is accounted against the
    backing relation.

    Every scan fans its per-entry comparisons out over a
    {!Simq_parallel.Pool} (default the global pool; size 1 = plain
    sequential execution). Chunk results are merged in entry order, so
    answers, distances and the [result] counters are bit-identical to a
    single-domain scan — parallelism never changes what a query
    returns.

    Every range entry point takes an optional [?profile]
    ({!Simq_obs.Profile}): when present, the scan records a
    [seqscan.range] operator node (with [seqscan.io] and
    [seqscan.compute] children carrying page traffic, candidates,
    survivors and early-abandon tallies) on the coordinating domain,
    after the chunk merge — so the recorded tree and counters are
    identical at every domain count, and the disabled path costs
    nothing. *)

type result = {
  answers : (Dataset.entry * float) list;
  full_computations : int;
      (** distance computations carried to completion *)
  coefficients_touched : int;
      (** total spectrum coefficients examined — the work an early
          abandon saves *)
}

(** [range_full dataset ?pool ?spec ~query ~epsilon] compares the query
    against every entry with no early abandoning (method (a) style). *)
val range_full :
  ?pool:Simq_parallel.Pool.t ->
  ?spec:Spec.t -> ?profile:Simq_obs.Profile.t ->
  Dataset.t -> query:Simq_series.Series.t -> epsilon:float ->
  result

(** [range_early_abandon dataset ?pool ?spec ~query ~epsilon] stops each
    distance computation as soon as the running sum exceeds ε
    (method (b) style). Answers are identical to {!range_full}. *)
val range_early_abandon :
  ?pool:Simq_parallel.Pool.t ->
  ?spec:Spec.t -> ?profile:Simq_obs.Profile.t ->
  Dataset.t -> query:Simq_series.Series.t -> epsilon:float ->
  result

(** [range_checked dataset ?pool ?spec ?budget ~query ~epsilon] is
    the resilient scan: same answers as {!range_early_abandon} but
    executed under a {!Simq_fault.Budget} and bounded
    {!Simq_fault.Retry}, returning a typed error instead of raising.
    Each attempt gets a fresh budget state, charged for every page the
    attempt touches on the backing relation and checked per entry in
    every scan domain; transient page-read faults from the budget's
    fault plan ({!Simq_fault.Budget.create} [~faults]) are retried, each
    abandoned attempt an event on the [seqscan.range] profile node.
    With an unlimited budget and no fault
    plan the result is bit-identical to the unchecked scan.

    [?mean_window]/[?std_band] are the side constraints of
    {!Kindex.range}: an answer is kept only when its mean and deviation
    lie in the closed intervals {!Dataset.side_ranges} derives from the
    raw query — the test the index applies to its mean/std dimensions,
    so the constrained scan returns the constrained index answer, ids
    and distances bit for bit. Argument validation errors (wrong query
    length, negative ε, a bad constraint) still raise
    [Invalid_argument]. *)
val range_checked :
  ?pool:Simq_parallel.Pool.t ->
  ?spec:Spec.t ->
  ?mean_window:float ->
  ?std_band:float ->
  ?budget:Simq_fault.Budget.t ->
  ?profile:Simq_obs.Profile.t ->
  Dataset.t -> query:Simq_series.Series.t -> epsilon:float ->
  (result, Simq_fault.Error.t) Result.t

(** [reference dataset ?spec ~query ~epsilon] is the plain time-domain
    brute force used as the test oracle (always single-domain). *)
val reference :
  ?spec:Spec.t -> ?normalise_query:bool -> Dataset.t -> query:Simq_series.Series.t -> epsilon:float ->
  (Dataset.entry * float) list
