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
    {!Simq_tsindex.Join.index}. A plain engine is the one
    with an unlimited budget and no admission policy: it takes the
    same routes. The engine's budget also carries its fault plan
    ([Simq_fault.Budget.create ~faults], [simq serve --fault-*]):
    every guarded access of every attempt consults the attempt's
    state. A faulted attempt is retried; when the faults outlast the
    retries, RANGE (and each shard of a sharded NEAREST) degrades to
    the scan, while unsharded NEAREST and scan PAIRS answer
    [io_failed], and index PAIRS answers [io_failed] like unsharded
    NEAREST. Both paths of every
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
    --noise] does (default [0.]); [budget] bounds each executed query
    and carries the fault plan its attempts consult;
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

(** The shard set behind a sharded engine ([None] on plain ones). *)
val sharded : t -> Simq_shard.t option

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

(** The one request record: everything known about one query once it
    has finished, filled in by {!exec} as the plan unfolds and stamped
    on every way out — an answer, a typed error, or an exception that
    escapes the executor. Every view of a finished query is a
    projection of it: the qlog line ({!qlog_entry}), the [simq.serve]
    response and [simq.batch] line ({!Protocol.result_line}), the
    daemon's slow exemplar and the one-shot report of [simq query]. *)
type note = {
  mutable note_spec : string;  (** the query text as received *)
  mutable note_digest : string option;
      (** the digest of [note_spec], computed on first use by
          {!note_digest}; [None] until a view asks for it *)
  mutable note_trace : int option;
      (** the request id in scope while the query ran
          ({!Simq_obs.Trace.current_request}) *)
  mutable note_path : string option;  (** access path actually executed *)
  mutable note_decision : string option;
      (** admission decision, read from the answered result (on a
          sharded engine the worst per-shard decision: reject >
          degrade_to_scan > admit) — ["reject"] for every rejected
          query, none for a query that failed after admission *)
  mutable note_shards : Simq_obs.Qlog.shard_counts option;
      (** scatter-gather accounting, set on sharded executions *)
  mutable note_partial : bool;
      (** the answer is an anytime partial subset (see {!outcome}) *)
  mutable note_duration_s : float;  (** execution time inside {!exec} *)
  mutable note_outcome : string;
      (** ["ok"], the {!Simq_cli.outcome_of_error} kind, or ["fault"]
          for an escaped exception *)
  mutable note_exit : int;  (** the exit code matching [note_outcome] *)
}

(** An empty record, for {!exec} to fill. *)
val note : unit -> note

(** [note_digest note] is the record's query identity — the first 12
    hex characters of the MD5 digest of its spec — computed once and
    kept in the record. *)
val note_digest : note -> string

(** [refuse note ~trace ~spec e] records a request refused before it
    reached the executor (the daemon's in-flight cap): decision
    ["reject"], [e]'s outcome and exit code, zero duration. *)
val refuse : note -> trace:int -> spec:string -> Simq_fault.Error.t -> unit

(** A successful execution's answer: whether it is an anytime partial
    subset, the answer count, and the rendered answer rows —
    [{id; name; distance}] objects for RANGE/NEAREST, [{a; b}] name
    pairs for PAIRS. How the answer was reached lives in the
    {!note}. *)
type outcome = {
  partial : bool;
      (** an approximate engine under a budget ran out inside exact
          verification: the answers are a sound subset of the exact
          ones (from {!Simq_tsindex.Kindex}, {!Simq_tsindex.Planner} or
          {!Simq_shard}). Always [false] for NEAREST and PAIRS *)
  answers : int;
  results : Simq_obs.Json.t;
}

(** [exec ?qlog ?profile ?pairs_pool ?note t text] parses and
    executes one query, filling [note] (a fresh record when omitted;
    pass a fresh {!note} per query). [pairs_pool] feeds the PAIRS scan
    methods' domain pool (batch passes
    {!Simq_parallel.Pool.sequential} so a batched query stays whole on
    its executing domain). Parse failures and argument violations are
    [Usage] errors; budget exhaustion, unretried faults and admission
    rejections are typed [Fault] errors — [exec] never raises on
    query-dependent input. An exception that escapes anyway is
    recorded in [note] as outcome ["fault"], exit 4, and re-raised.

    With [qlog], the query also appends its record's line
    ({!qlog_entry}), whose counter deltas bracket the execution
    between two global registry snapshots — valid only while the
    caller serialises execution ([simq query] runs one query, the
    daemon holds its engine mutex). Without [qlog] no snapshot is
    taken. *)
val exec :
  ?qlog:Simq_obs.Qlog.t ->
  ?profile:Simq_obs.Profile.t ->
  ?pairs_pool:Simq_parallel.Pool.t ->
  ?note:note ->
  t ->
  string ->
  (outcome, Simq_cli.error) result

(** [parse_checked ~qlog text] is [Ok ()] when [text] parses, and
    otherwise the [Usage] error {!exec} returns for it, with the qlog
    line {!exec} logs for it when [qlog] is given (durations aside): a
    caller can refuse a malformed query before it loads a relation or
    creates an engine. *)
val parse_checked :
  qlog:Simq_obs.Qlog.t option -> string -> (unit, Simq_cli.error) result

(** [qlog_entry ?deltas note] is the record's qlog line: spec and
    digest, decision, path, shard counts, duration, outcome, exit code
    and trace id, plus the domain count of the default pool, read now.
    [deltas] (default none) are the counter deltas of the caller's
    registry bracket. The only place a {!Simq_obs.Qlog.entry} is
    built. *)
val qlog_entry : ?deltas:(string * int) list -> note -> Simq_obs.Qlog.entry

(** [batch ?profiles ?qlog t texts] executes every query of a batch,
    one query per task of the default pool, each under its own
    request id (allocated in query order, so ids are a pure function
    of the batch) and with PAIRS scans on the sequential pool. Returns
    each query's record and result in query order. With [qlog], one
    line per query is logged after the batch, in query order, so
    sampling is a pure function of the sequence number at every pool
    size; per-query counter deltas are not separable under parallel
    execution, so those lines carry none. *)
val batch :
  ?profiles:Simq_obs.Profile.t array ->
  ?qlog:Simq_obs.Qlog.t ->
  t ->
  string array ->
  (note * (outcome, Simq_cli.error) result) array
