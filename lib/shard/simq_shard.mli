(** Sharded scatter-gather execution: one relation partitioned into K
    shards, each owning its own dataset (a block of the parent's
    prepared entries), R*-tree, buffer pool and labelled metrics
    shard, queried through a scatter-gather executor
    that prunes shards by catalogue bounds {e before touching any
    page} — the way TSseek routes similarity queries to distributed
    time-series partitions.

    {b Partitioning.} The partitioner is deterministic: entry ids are
    split into K contiguous blocks in id order (block [i] holds
    [n / K] entries, the first [n mod K] blocks one more), so the same
    dataset and K always produce the same shards, and the range
    merge — per-shard answer lists concatenated in shard order — comes
    out globally sorted by entry id, exactly as the unsharded
    traversal returns it. [K] is clamped to the cardinality, so no
    shard is ever empty.

    {b Catalogue pruning.} Each shard records the min/max box of its
    feature points (the 2k+2 index dimensions). A query probes every
    box with {!Simq_tsindex.Kindex.range_probe} — the very test the
    R-tree traversal applies to node MBRs — before anything executes.
    Lemma 1 makes the probe conservative: a pruned shard can hold no
    answer, so pruning never changes the result, and a pruned shard
    executes nothing — its tree, buffer pool and per-shard counter
    stay untouched.

    {b Determinism.} Surviving shards fan out over a
    {!Simq_parallel.Pool}, one task per shard, every task submitted at
    once; no two tasks share
    mutable state (each touches only its own tree and pool). A nearest
    query first runs one seed shard alone, then fans the others out
    under its k-th distance (see {!nearest_checked}). Answers,
    per-query counters and the merged metric totals are bit-identical
    to the unsharded run of the same query at every K and every domain
    count: range answers by the ordered union above, NN answers by a
    k-way merge of per-shard top-k lists in canonical
    (distance, entry id) order. Answer entries are the {e parent}
    dataset's — physically the entries an unsharded query returns.

    {b Resilience.} The checked entry points decide admission {e per
    shard} (each shard's own catalogue facts and calibration) before
    any shard executes: one rejecting shard rejects the whole query
    with nothing run. A shard that trips the fault layer mid-query
    degrades to its own per-shard scan — degrading that shard only,
    never failing the query; the exact answer still comes back.

    Every query bumps the [simq_shard_queries_total] /
    [simq_shard_fanout_total] / [simq_shard_pruned_total] /
    [simq_shard_degraded_total] counters, and each executed shard its
    [simq_shard_executed_total{shard="i"}] child — all on the
    coordinating domain, after the gather. *)

type t

(** [create ~shards dataset] partitions [dataset]. No series is
    prepared again: each shard's dataset is the parent's block
    ({!Simq_tsindex.Dataset.sub}), whose entries share the parent's
    [series] and [normal] arrays and whose spectrum and head rows are
    copied from the parent's slots. The rows are copied, not a slice of
    the parent's buffer: the parent's slots follow the parent tree's
    leaf order, while each shard lays its own block out in its own
    tree's leaf order, which is what makes its traversals read
    spectra nearly in sequence.

    Each shard owns its backing relation (hence buffer pool), spectrum
    buffer, R*-tree over [config] (default
    {!Simq_tsindex.Feature.default}), catalogue box (its tree's root
    MBR, the min/max box of its feature points) and labelled metrics
    child. [shards] above the cardinality is clamped; [shards < 1]
    raises [Invalid_argument].

    With [?sketch] every shard additionally builds its own
    {!Simq_sketch} table over its local dataset, and the range entry
    points below thread the shard's funnel into the per-shard
    traversals — exact-mode answers stay bit-identical (Lemma 1 holds
    per shard), only the count of exact distance evaluations drops.
    NN takes no sketch. *)
val create :
  ?config:Simq_tsindex.Feature.config ->
  ?max_fill:int ->
  ?sketch:Simq_sketch.config ->
  shards:int ->
  Simq_tsindex.Dataset.t ->
  t

(** [shards t] is the effective shard count K. *)
val shards : t -> int

(** [dataset t] is the parent dataset the answers' entries belong to. *)
val dataset : t -> Simq_tsindex.Dataset.t

(** [bounds t i] is shard [i]'s contiguous global-id block as
    [(lo, hi)], [lo] inclusive, [hi] exclusive. *)
val bounds : t -> int -> int * int

(** [shard_index t i] / [shard_dataset t i] expose shard [i]'s own
    index and dataset for inspection and invariant checking (the
    shard's backing relation — its buffer pool — is
    [Dataset.relation (shard_dataset t i)]). *)
val shard_index : t -> int -> Simq_tsindex.Kindex.t

val shard_dataset : t -> int -> Simq_tsindex.Dataset.t

(** What the gather reports about one scatter. *)
type report = {
  shards : int;  (** effective shard count K *)
  fanout : int;  (** shards that executed *)
  pruned : int;  (** shards refused by their catalogue box *)
  degraded : int;  (** executed shards answered by their own scan *)
  admission : Simq_admission.decision option array;
      (** the admission decision of each shard, in shard order: [None]
          for a pruned shard, and for every shard when no [admission]
          policy was given *)
}

(** [survivors t ?spec ~query ~epsilon] is the catalogue plan of the
    corresponding {!range}: element [i] tells whether shard [i]'s box
    meets the search region (probing reads no page). Argument
    validation raises [Invalid_argument] like {!range}. *)
val survivors :
  ?spec:Simq_tsindex.Spec.t ->
  ?mean_window:float ->
  ?std_band:float ->
  t ->
  query:Simq_series.Series.t ->
  epsilon:float ->
  bool array

type range_result = {
  answers : (Simq_tsindex.Dataset.entry * float) list;
      (** parent-dataset entries within ε, globally sorted by id —
          bit-identical to the unsharded traversal's *)
  candidates : int;
      (** summed over executed shards, in shard order; a scan-degraded
          shard contributes its cardinality *)
  node_accesses : int;  (** summed over executed shards (0 for scans) *)
  partial : bool;
      (** some shard's approximate run ([?approx]) had its exact
          verification cut short by its budget: the merged answers are
          a sound subset. Always [false] without [?approx], and for
          scan-degraded shards *)
  report : report;
}

(** [range t ?spec ~query ~epsilon] is the unbudgeted form of
    {!range_checked}: the same scatter-gather with an unlimited budget
    and no admission. That budget carries no fault plan, so no shard
    degrades and no error is left to raise. *)
val range :
  ?pool:Simq_parallel.Pool.t ->
  ?spec:Simq_tsindex.Spec.t ->
  ?mean_window:float ->
  ?std_band:float ->
  ?approx:float ->
  ?profile:Simq_obs.Profile.t ->
  t ->
  query:Simq_series.Series.t ->
  epsilon:float ->
  range_result

(** [range_checked t ?spec ?budget ?admission ~query ~epsilon]
    scatters the range query of {!Simq_tsindex.Kindex.range} over the
    surviving shards under the fault layer, shard by shard, and gathers
    the ordered union. Side constraints ([mean_window]/[std_band])
    participate in the catalogue probe, the per-shard traversals and
    the per-shard degradation scans alike. With [?profile] the gather
    records a [shard.scatter] node (one [shard.i] child per shard: its
    fate — [pruned], [index] or [scan] — pages, candidates and rows)
    and a [shard.gather] node (rows in = per-shard answers, rows out =
    merged answers), on the coordinating domain after the merge, so the
    recorded structure is identical at every domain count.

    When the executor carries sketches ([create ?sketch]) each shard
    funnels its candidates through its own sketch levels first;
    [?approx a] relaxes every shard's funnel to the [(1 - a) epsilon]
    cutoff (validated as in {!Simq_tsindex.Kindex.range}), keeping
    every answer within [(1 - a) epsilon] and returning only true
    answers.

    With [?admission], every surviving shard is vetted {e before any
    shard executes} — {!Simq_admission.decide} on the shard's own
    catalogue facts and selectivity histogram (collected lazily, once
    per shard), in shard order, each decision counted in the
    [simq_admission_decisions_total] family and reported in the
    result's [report.admission]. Decisions are pure functions of catalogue metadata,
    the budget and a registry snapshot — identical at every domain
    count. One [Reject] rejects the whole query with the typed
    [Rejected] error and {e nothing executed}: every execution-side
    counter family stays at zero. A [Degrade_to_scan] sends that shard
    (only) straight to its scan.

    Each executing shard runs {!Simq_tsindex.Kindex.range_checked}
    against its own tree with a fresh state of [budget] (limits are
    per shard-attempt, like retries); a shard whose index path fails —
    budget exhausted or transient faults outlasting the retries —
    degrades
    to its own {!Simq_tsindex.Seqscan.range_checked} over the shard
    dataset, under the same side constraints, degrading that shard
    only. The admission workload uses the shard's unconstrained
    selectivity, an upper bound under side constraints. [Error] is
    returned only when a shard's fallback itself fails.

    Sketched executors funnel per shard as above; each shard's
    funnel levels feed that shard's admission workload
    ([sketch_levels]), so the cost model sees the comparisons the
    funnel saves. An approximate run is also anytime: a shard whose
    budget dies inside exact verification returns its sound subset
    (marked in [partial]) instead of degrading to the scan; descent
    exhaustion still degrades as before. *)
val range_checked :
  ?pool:Simq_parallel.Pool.t ->
  ?spec:Simq_tsindex.Spec.t ->
  ?mean_window:float ->
  ?std_band:float ->
  ?budget:Simq_fault.Budget.t ->
  ?admission:Simq_admission.t ->
  ?approx:float ->
  ?profile:Simq_obs.Profile.t ->
  t ->
  query:Simq_series.Series.t ->
  epsilon:float ->
  (range_result, Simq_fault.Error.t) Result.t

type nearest_result = {
  neighbours : (Simq_tsindex.Dataset.entry * float) list;
      (** the k nearest parent-dataset entries in canonical
          (distance, entry id) order *)
  nearest_report : report;  (** NN prunes nothing: fanout = K *)
}

(** [nearest t ?spec ~query ~k] is the unbudgeted form of
    {!nearest_checked}: an unlimited budget (so no fault plan) and no
    admission. *)
val nearest :
  ?pool:Simq_parallel.Pool.t ->
  ?spec:Simq_tsindex.Spec.t ->
  ?profile:Simq_obs.Profile.t ->
  t ->
  query:Simq_series.Series.t ->
  k:int ->
  nearest_result

(** [nearest_checked t ?spec ?budget ?admission ~query ~k]
    scatters {!Simq_tsindex.Kindex.nearest_checked} over every shard
    (an NN query has no radius to prune on until answers exist, so all
    K execute) and k-way-merges the per-shard top-k lists in
    (distance, entry id) order — the same exact answer set as the
    unsharded traversal, in the canonical order the degraded NN path
    uses.

    The shards do not all start blind. Before any shard runs, the
    {e seed} is chosen: the shard whose catalogue box has the smallest
    NN node bound ({!Simq_tsindex.Kindex.nearest_bound}), the lowest
    ordinal on ties. It runs first, alone, inside the [shard.scatter]
    node. When it returns [k] answers, its k-th distance [W] seeds the
    other K−1, which fan out together with
    [Kindex.nearest_checked ~within:W]: they skip every node and entry
    whose bound is above [W] and abandon refinements against it from
    the first. The global k-th distance is at most [W], so every
    global answer lies at or below [W] in its own shard and survives,
    ties at [W] included, and the merge is unchanged. A seed that
    returns fewer than [k] answers, or fails, seeds nothing
    ([W = infinity]); a failure is raised in shard order after the
    rest have run, as for {!range_checked}. So answers are those of
    the unseeded scatter; the node, key and refinement counts fall on
    the non-seed shards only, and are the same at every domain count.

    It records the same [shard.scatter]/[shard.gather] profile
    nodes as {!range_checked}; each shard task then records into a
    private profile of its own, and its [shard.i] node takes the counts
    of that shard's [kindex.nearest] node (or [kindex.nearest-scan]
    when the shard was answered by its scan): entries keyed as rows
    in, refinements as candidates, node expansions as pages. Raises
    [Invalid_argument] when [k <= 0] or on a query-length mismatch.

    The fault layer follows the same per-shard contract as
    {!range_checked}: every shard vetted before any
    executes (the NN workload uses the shard's exact answer fraction
    [k / cardinality] as its selectivity), one [Reject] refusing the
    whole query with nothing run, [Degrade_to_scan] and mid-flight
    index failures degrading that shard (only) to the exact linear
    selection of {!Simq_tsindex.Kindex.nearest_scan}. The merge is
    exact whichever mix of paths answered the shards. NN takes no
    sketch, so the per-shard admission workloads carry no sketch
    discount — decisions are identical with and without sketches. *)
val nearest_checked :
  ?pool:Simq_parallel.Pool.t ->
  ?spec:Simq_tsindex.Spec.t ->
  ?budget:Simq_fault.Budget.t ->
  ?admission:Simq_admission.t ->
  ?profile:Simq_obs.Profile.t ->
  t ->
  query:Simq_series.Series.t ->
  k:int ->
  (nearest_result, Simq_fault.Error.t) Result.t
