(** The one query executor behind [simq query], [simq batch], [simq
    serve] and the stress oracle: one loaded relation, one built
    k-index, one lazily collected planner histogram and one admission
    policy, executing query-language text against them. A one-shot
    [simq query] builds an engine and runs one query through it; the
    resident commands run many without paying the load/build cost per
    query. Every routing decision — which physical strategy answers a
    RANGE, NEAREST or PAIRS query under which options — lives here and
    nowhere else.

    Every query class has one route per engine shape, through the
    checked entry point of its physical strategy. RANGE runs
    {!Simq_tsindex.Planner.range_resilient} (planning, admission
    vetting, then budgeted execution with scan degradation), NEAREST
    {!Simq_tsindex.Kindex.nearest_checked} (the same vetting, exact
    linear-selection degradation), scan PAIRS
    {!Simq_tsindex.Join.scan_checked} and index PAIRS
    {!Simq_tsindex.Join.index_transformed}. A plain engine is the one
    with an unlimited budget and no admission policy: it takes the
    same routes, so it too retries transient faults and degrades to
    the scan when they outlast the retries. Both paths of every
    degradation are exact, side constraints ([MEAN]/[STD]) included,
    so for every query a checked engine {e admits or degrades}, the
    answers are bit-identical to the plain engine's — the invariant
    the stress harness verifies against a served daemon.

    A {e sharded} engine ([?shards]) additionally partitions the
    relation through {!Simq_shard} and routes RANGE/NEAREST through
    its checked scatter-gather ({!Simq_shard.range_checked},
    {!Simq_shard.nearest_checked}: catalogue pruning, per-shard
    admission and degradation, deterministic merge); every sharded
    execution is bit-identical to the corresponding unsharded one, so
    the stress oracle needs no sharding awareness. *)

type t

(** [create ?noise ?budget ?admission ?shards index] wraps a built
    index. [noise] perturbs every resolved query series as [simq query
    --noise] does (default [0.]); [budget] bounds each executed query;
    [admission] vets each RANGE/NEAREST query against the cost model
    before execution; [shards] partitions the relation into that many
    shards and answers RANGE/NEAREST by scatter-gather. The planner
    histogram backing admission is collected from a fixed seed on
    first use, so engine decisions are deterministic for a given
    registry state.

    [?sketch] builds a {!Simq_sketch} table (per shard on a sharded
    engine) and threads the funnel into every RANGE execution; NEAREST
    takes no sketch (the k-index queues entries under its own head
    bound). Without [?approx] the answers stay bit-identical to an
    unsketched engine's. [?approx a] (finite, [0 <= a < 1], else
    [Invalid_argument] here) makes RANGE queries approximate —
    sketch-dismissal at the [(1 - a) epsilon] cutoff, only true
    answers returned — and progressive: a budgeted engine whose budget
    dies inside exact verification returns the sound subset it
    verified instead of degrading to the scan. *)
val create :
  ?noise:float ->
  ?budget:Simq_fault.Budget.t ->
  ?admission:Simq_admission.t ->
  ?shards:int ->
  ?sketch:Simq_sketch.config ->
  ?approx:float ->
  Simq_tsindex.Kindex.t ->
  t

val index : t -> Simq_tsindex.Kindex.t

(** The shard set behind a sharded engine ([None] on plain ones). *)
val sharded : t -> Simq_shard.t option

(** [digest text] is the stable 12-hex-character query identity used
    by the query log and the batch/serve response lines. *)
val digest : string -> string

(** [resolve_query_series dataset spec ~name ~noise] resolves the
    [sN] query-name convention against the data set: entry [N]'s
    series, perturbed by [noise] when positive (fixed PRNG seed, so
    reruns see the same perturbation), expanded first when [spec] is
    the time warp. Unknown or out-of-range names are [Usage]
    errors. *)
val resolve_query_series :
  Simq_tsindex.Dataset.t ->
  Simq_tsindex.Spec.t ->
  name:string ->
  noise:float ->
  (Simq_series.Series.t, Simq_cli.error) result

(** What the query log wants to know about an execution, filled in as
    the plan unfolds — meaningful even when {!exec} returns an error
    (a rejected query records its ["reject"] decision here). *)
type note = {
  mutable note_path : string option;  (** access path actually executed *)
  mutable note_decision : string option;
      (** admission decision; on a sharded engine the worst per-shard
          decision (reject > degrade_to_scan > admit) *)
  mutable note_shards : Simq_obs.Qlog.shard_counts option;
      (** scatter-gather accounting, set on sharded executions *)
}

val note : unit -> note

(** A successful execution: the executed path, admission decision and
    scatter-gather counts (as in the {!note}), whether the answer is an
    anytime partial subset, the answer count, and the rendered answer
    rows — [{id; name; distance}] objects for RANGE/NEAREST, [{a; b}]
    name pairs for PAIRS — ready for a response, batch line or the
    one-shot report. *)
type outcome = {
  path : string option;
  decision : string option;
  shards : Simq_obs.Qlog.shard_counts option;
      (** set on sharded executions *)
  partial : bool;
      (** an approximate engine under a budget ran out inside exact
          verification: the answers are a sound subset of the exact
          ones (from {!Simq_tsindex.Kindex}, {!Simq_tsindex.Planner} or
          {!Simq_shard}). Always [false] for NEAREST and PAIRS *)
  answers : int;
  results : Simq_obs.Json.t;
}

(** [exec ?profile ?pairs_pool ?note t text] parses and executes one
    query. [pairs_pool] feeds the PAIRS scan methods' domain pool
    (batch passes {!Simq_parallel.Pool.sequential} so a batched query
    stays whole on its executing domain). Parse failures and argument
    violations are [Usage] errors; budget exhaustion, unretried faults
    and admission rejections are typed [Fault] errors — [exec] never
    raises on query-dependent input. *)
val exec :
  ?profile:Simq_obs.Profile.t ->
  ?pairs_pool:Simq_parallel.Pool.t ->
  ?note:note ->
  t ->
  string ->
  (outcome, Simq_cli.error) result
