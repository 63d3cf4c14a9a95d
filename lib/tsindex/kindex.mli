(** The k-index (Section 4): an R*-tree over the first [k] Fourier
    coefficients of the normal forms (plus mean and standard deviation),
    processing similarity queries under safe transformations with the
    paper's Algorithm 2:

    + {b Preprocessing} — transform the query and the transformation to
      the frequency domain and build a search region (Section 3.1);
    + {b Search} — traverse the R-tree, applying the transformation to
      every MBR and data point on the fly (Algorithm 1: the transformed
      index is never materialised);
    + {b Postprocessing} — check every candidate's full record against
      the true distance.

    Lemma 1 (no false dismissals) holds because the distance on the
    first [k] coefficients lower-bounds the full distance; the answer
    returned after postprocessing is therefore exact. *)

type t

(** [build ?config ?max_fill dataset] bulk-loads the index (STR) and
    lays [dataset]'s spectra out in the tree's leaf order
    ({!Dataset.lay_out}), so the refinements of a query read nearby
    slots. The index is read-only from then on: its tree and data set
    never gain or lose an entry. Raises [Invalid_argument] when
    [config.k] is not below the series length. *)
val build : ?config:Feature.config -> ?max_fill:int -> Dataset.t -> t

(** [open_file ~relation file] is the index of [relation], the
    relation loaded from [file], equal to
    [build (Dataset.of_relation relation)] bit for bit: entries,
    spectra, head rows, slots, node order and node MBRs. When [file]'s
    prepared image ({!Image.path}) was written for this relation
    ({!Image.read}), it is read instead and nothing is prepared or
    sorted (trace span ["image.open"]): the data set's spectra are then
    a view of the image's private mapping, read in place (see
    {!Image}). Otherwise the index is prepared
    and built (spans ["prepare"] and ["build"]) and the image written
    with [file]'s permission bits (span ["image.write"]); a write that
    fails is ignored. Raises what {!Dataset.of_relation} and {!build}
    raise. *)
val open_file : relation:Simq_storage.Relation.t -> string -> t

val dataset : t -> Dataset.t
val config : t -> Feature.config

(** [tree t] exposes the underlying R*-tree (payloads are entry ids) for
    inspection and invariant checking. *)
val tree : t -> int Simq_rtree.Rstar.t

(** A range query's answers, and what finding them cost. *)
type 'a found = {
  answers : 'a list;
      (** the entries whose true (transformed) distance is within ε,
          with that distance, by ascending id *)
  candidates : int;  (** leaf hits before postprocessing (>= answers) *)
  node_accesses : int;  (** R-tree nodes visited by this query *)
  partial : bool;
      (** [true] only on a checked, approximate ([?approx]) run whose
          budget died inside exact verification: the answers returned
          are a sound subset of the exact answer (each one paid its
          exact distance), and the tail was never verified. Always
          [false] otherwise. *)
}

type range_result = (Dataset.entry * float) found

(** A multi-resolution sketch funnel, run between the index descent
    and the exact postfilter: level [l] (coarse first; [levels.(l)]
    names it, e.g. ["coarse"], ["segment"]) maps an entry id to
    [bound l id], a proved lower bound on the true (transformed)
    distance. A candidate is dismissed as soon as one level's bound
    exceeds the cutoff (ε in exact mode — Lemma 1 applied one
    resolution at a time, so the answer is unchanged; [(1 - a)·ε]
    with [?approx a]). [on_filtered l n] observes the [n] candidates
    level [l] dismissed (the [simq_sketch_filtered_total{level}]
    counters). Bound evaluations read no page and are never charged
    against the budget. {!Simq_sketch} builds funnels whose bounds
    are proved; any caller-supplied bound must lower-bound the exact
    postfilter distance or exact mode loses answers. *)
type prefilter = {
  levels : string array;
  bound : int -> int -> float;
  on_filtered : int -> int -> unit;
}

(** [range t ?spec ~query ~epsilon] finds every series [x] of the data
    set with [D(T (normal x), normal query) <= epsilon], where [T] is
    [spec] (default [Identity]) applied in the time domain. The query
    series must have length [Spec.output_length spec ~n].
    [~normalise_query:false] uses the query verbatim — pass a series
    already in the comparison space (e.g. the moving average of a normal
    form) to match both-sides-transformed semantics. The postfilter
    abandons each distance at [epsilon] ({!Simq_dsp.Flat.dist_within}),
    so answers and distances are {!prepared_distance}'s, bit for bit. *)
val range :
  ?spec:Spec.t ->
  ?normalise_query:bool ->
  ?mean_window:float ->
  ?std_band:float ->
  ?sketch:(Dataset.query -> prefilter option) ->
  ?approx:float ->
  ?profile:Simq_obs.Profile.t ->
  t ->
  query:Simq_series.Series.t ->
  epsilon:float ->
  range_result
(** With [?profile] ({!Simq_obs.Profile}) the query records a
    [kindex.range] operator node with [kindex.descent] (node accesses
    as pages, candidates out), one [sketch.<level>] node per funnel
    level (rows in/out — the filter ladder), and [kindex.postfilter]
    (survivors in, answers out) children; [nearest] records a
    [kindex.nearest] node whose pages are the node expansions of the
    best-first traversal, whose rows in are the data entries it keyed
    and whose candidates are the entries it refined. Profiling never changes an answer and costs
    nothing when absent.

    [?sketch] is a funnel {e builder} ({!Simq_sketch.funnel} partially
    applied): called once on the prepared query, its result (a
    {!prefilter}) filters candidates between descent and the exact
    postfilter. With no [?approx] the answer is bit-identical to the
    funnel-free run (every level lower-bounds the exact distance —
    Lemma 1). [?approx a] (finite, [0 <= a < 1]) tightens the funnel
    cutoff to [(1 - a)·ε]: every returned answer is still a true
    answer, but answers whose distance lies in [((1 - a)·ε, ε]] may be
    dismissed at sketch resolution — the ε-guaranteed approximate
    mode. [Invalid_argument] when [a] is outside [[0, 1)]. The
    approximate mode is also {e anytime}: on the checked path, budget
    exhaustion inside exact verification returns a partial result
    ([partial = true]) instead of a typed error — exhaustion during
    the descent still fails the query, because no sound subset exists
    yet.

    The optional GK95-style side constraints restrict answers through
    the mean/std index dimensions: [mean_window w] keeps series whose
    mean lies within [w] of the (raw) query's mean; [std_band f]
    (with [f >= 1]) keeps series whose standard deviation is within a
    factor [f] of the query's. The paper's conclusion points out that
    simple shifts and scales compose with the general transformations
    this way. *)

(** [range_checked t ?spec ?budget ~query ~epsilon] is {!range}
    under a {!Simq_fault.Budget} and bounded {!Simq_fault.Retry}: node
    visits are charged against the budget inside the traversal
    (cooperatively cancellable), candidate postprocessing charges one
    comparison per candidate, and transient node-access faults from the
    budget's fault plan are retried, each retry an event on the
    caller's innermost open [profile] node. Returns the exact
    {!range} result or a typed error — never a fault or budget
    exception. Each attempt gets a fresh budget state; the tree's
    cumulative access counter is credited only by a successful
    attempt. Argument validation still raises [Invalid_argument]. *)
val range_checked :
  ?spec:Spec.t ->
  ?mean_window:float ->
  ?std_band:float ->
  ?budget:Simq_fault.Budget.t ->
  ?sketch:(Dataset.query -> prefilter option) ->
  ?approx:float ->
  ?profile:Simq_obs.Profile.t ->
  t ->
  query:Simq_series.Series.t ->
  epsilon:float ->
  (range_result, Simq_fault.Error.t) Result.t

(** [range_probe t ?spec ~query ~epsilon] is the pruning predicate of
    the corresponding {!range} traversal, detached from the tree: it
    answers whether a bounding box of feature points (a node MBR, or a
    shard's min/max catalogue box in {!module:Simq_shard}) can hold a
    candidate — the same transformed per-dimension interval test the
    traversal applies to every node. Lemma 1 makes it conservative: a
    box it refuses holds no feature point matching the search region,
    hence no candidate, hence no answer. Building and applying the
    predicate reads no page and visits no node. Argument validation
    (query length, negative ε, side-constraint ranges) raises
    [Invalid_argument] like {!range}. *)
val range_probe :
  ?spec:Spec.t ->
  ?mean_window:float ->
  ?std_band:float ->
  t ->
  query:Simq_series.Series.t ->
  epsilon:float ->
  (Simq_geometry.Rect.t -> bool)

(** [twin_slack t spec ~query_norm] is the slack of the mirrored bound
    ({!Simq_dsp.Flat.rounding_slack} over [t]'s series length, the
    gain of [spec] and the larger of [√n] and [query_norm]) against a
    query spectrum of norm [query_norm] (pass [0.] when both sides are
    stored entries, as a join does), or [infinity] when the bound stays
    one-sided: under a warp, whose distance is not the
    frequency-domain kernel, and when a twin would not be a
    coefficient of its own, [n < 2·Flat.head_width] or [n < 2k + 2].
    {!range}, {!range_checked} and {!range_probe} search each feature
    within {!Simq_dsp.Flat.twin_radius} of ε (about ε/√2), or, without
    twins, within [ε·(1 + 1e-9)] plus the same rounding slack (taken
    at the warped length under a warp); {!nearest} and
    {!nearest_checked} count each feature of a node bound and each
    head coefficient of a key with its twin, and so does
    {!range_attempt}. {!range_generic} searches within ε itself,
    one-sided: its caller supplies the distance. *)
val twin_slack : t -> Spec.t -> query_norm:float -> float

(** [nearest t ?spec ~query ~k] is the [k] entries minimising the same
    distance, closest first, ties broken by ascending entry id —
    best-first search with per-feature geometric lower bounds on the
    nodes ([RKV95]), in the optimal multi-step form of Seidl and
    Kriegel: every data entry of an expanded leaf is queued under the
    square root of the one kernel's ({!Simq_dsp.Flat.sq_dist}) partial
    sum over its first {!Simq_dsp.Flat.head_width} coefficients
    ({!Dataset.head_sq_dist}), and is refined only when it reaches the
    top of the queue, by resuming that same accumulator over the tail
    of its stored spectrum ({!Simq_dsp.Flat.dist_within}). So a
    refined distance is exactly {!prepared_distance}'s double. The
    traversal is {!Simq_rtree.Nn.best_first}: it queues the tree's own
    entries and writes every bound, key and distance into one float
    cell, so it allocates per query, not per entry. The traversal keeps the [k] best
    refined distances so far: an entry whose head bound is strictly
    above the k-th is never queued, and a refinement abandons once
    its distance provably lies strictly above it — by the twin test
    of {!Simq_dsp.Flat.dist_within} over coefficients up to [⌈n/2⌉−1]
    when the mirrored bound holds ({!twin_slack}; the head's
    coefficient-0 term comes from {!Dataset.head_sq_dist}, the row is
    not read again), then once its partial root is strictly above it.
    An abandoned entry is one the plain kernel would have dropped too,
    so the entries refined, the answers and every count are the
    one-sided kernel's. The warp changes the
    length and keeps its time-domain distance, computed as entries
    are found. Nodes are expanded exactly as without the deferral.

    [?sketch] is an NN bound builder ({!Simq_sketch.nn_bound}
    partially applied): called once on the prepared query, it
    yields a per-entry lower bound that replaces the head bound as the
    queue key; refinement is the same, so the answers are
    bit-identical to the sketch-free run at every domain count. *)
val nearest :
  ?spec:Spec.t ->
  ?sketch:(Dataset.query -> (int -> float) option) ->
  ?profile:Simq_obs.Profile.t ->
  t ->
  query:Simq_series.Series.t -> k:int -> (Dataset.entry * float) list

type nearest_result = {
  neighbours : (Dataset.entry * float) list;
      (** the {!nearest} answer, closest first *)
  admission : Simq_admission.decision option;
      (** the admission decision, when an [admission] policy was
          given *)
}

(** [nearest_checked t ?spec ?budget ?admission ~query ~k] is
    {!nearest} (which it runs without a sketch) under a
    {!Simq_fault.Budget} and bounded {!Simq_fault.Retry}: the same
    traversal, with every node
    expansion checked and charged as a node access and every
    refinement (or warp distance) as one comparison; queue keys charge
    nothing. Node faults from the budget's fault plan are retried, each
    retry an event on the [kindex.nearest] profile node; outlasting
    the retries is a typed [Io_failed], like budget
    exhaustion, never a degradation. Without a budget, admission or
    profile it is the plain {!nearest} run. Returns the exact
    {!nearest} result or a typed error; each attempt gets a fresh
    budget state. Argument validation still raises
    [Invalid_argument].

    With [?admission] the query is vetted by the same cost model the
    range planner consults ({!Simq_admission.decide}), {e before} any
    node is visited or page read. The NN workload description uses
    the exact answer fraction [k / cardinality] as its selectivity —
    catalogue facts only, so the decision is a pure function of the
    budget and a registry snapshot, identical at every
    [SIMQ_DOMAINS]/[--jobs] setting. A [Reject] returns the typed
    [Rejected] error with nothing executed; [Degrade_to_scan] answers
    exactly through a linear selection over the prepared entries
    (priced like the scan path: one comparison and one logical page
    read per series, ties at the [k] boundary broken on the entry
    id); [Admit] runs the index traversal unchanged. The decision
    comes back in the result's [admission].

    [?within] (default [infinity]) seeds the traversal's k-th bound
    ({!Simq_rtree.Nn.best_first}): nodes and entries whose bound is
    strictly above it are never queued, and refinements abandon
    against it from the first. The index path then returns the first
    [k] of the {!nearest} answers at distance [<= within], ties at
    [within] included; the degraded scan ignores it and returns the
    full {!nearest} answer. Either way, merged with a list of [k]
    answers at distance [<= within] from elsewhere, the top [k] are
    those of the unseeded run — how {!module:Simq_shard} seeds the
    shards after the first. *)
val nearest_checked :
  ?spec:Spec.t ->
  ?budget:Simq_fault.Budget.t ->
  ?admission:Simq_admission.t ->
  ?within:float ->
  ?profile:Simq_obs.Profile.t ->
  t ->
  query:Simq_series.Series.t ->
  k:int ->
  (nearest_result, Simq_fault.Error.t) Result.t

(** {2 A NEAREST prepared once}

    The entry points above prepare their query on every call. A caller
    that poses one query to several indexes of the same series length
    and feature configuration — the shards of {!module:Simq_shard} —
    prepares it once and hands it to each. *)

(** A prepared NEAREST query: the query entry
    ({!Dataset.prepare_query}), the transformation ({!prepare}) and the
    query side of the node bound. Read only: one value may be used
    from several domains at once. *)
type nearest_query

(** [nearest_query t spec query] prepares [query] under [spec] for [t]
    and every index of [t]'s series length and feature configuration.
    Raises [Invalid_argument] when [query] has the wrong length. *)
val nearest_query : t -> Spec.t -> Simq_series.Series.t -> nearest_query

(** [nearest_prepared t r ~budget ~within ~profile ~k] is
    [nearest_checked ~spec ~budget ~within ?profile t ~query ~k] for
    the query [r] was prepared from, without admission: the same
    answers, counts and profile node, returned as the neighbours.
    Raises [Invalid_argument] when [k <= 0] or [r] was prepared for an
    index of another length or configuration. *)
val nearest_prepared :
  t ->
  nearest_query ->
  budget:Simq_fault.Budget.t ->
  within:float ->
  profile:Simq_obs.Profile.t option ->
  k:int ->
  ((Dataset.entry * float) list, Simq_fault.Error.t) Result.t

(** [nearest_scan t r ~budget ~profile ~k] answers the query [r] was
    prepared from as {!nearest} does, through an exact linear
    selection over the prepared entries — the degraded NN path,
    exposed so callers (the scatter-gather executor of
    {!module:Simq_shard}) can degrade one partition without an
    admission verdict. Priced like the scan path: one comparison and
    one logical page read per series against [budget], each page read
    consulting its fault plan; ties at the [k] boundary break on the
    entry id, so the selection is deterministic at every domain count.
    Returns the answers (closest first) or a typed error; each retry
    attempt gets a fresh budget state. Raises [Invalid_argument] as
    {!nearest_prepared} does. *)
val nearest_scan :
  t ->
  nearest_query ->
  budget:Simq_fault.Budget.t ->
  profile:Simq_obs.Profile.t option ->
  k:int ->
  ((Dataset.entry * float) list, Simq_fault.Error.t) Result.t

(** [nearest_bound t r] is the node bound of {!nearest} detached from
    the tree, for the query [r] was prepared from: applied to a box of
    feature points (a node MBR, or a shard's catalogue box in
    {!module:Simq_shard}) it is the lower bound, twins counted as in
    the traversal, on the distance from the query to every entry whose
    feature point the box holds. The returned function reuses one
    cell: call it from one domain at a time. Raises [Invalid_argument]
    as {!nearest_prepared} does. *)
val nearest_bound : t -> nearest_query -> Simq_geometry.Rect.t -> float

(** [range_generic t ?spec ~query_coeffs ~epsilon ~distance] is a
    range traversal with a caller's distance: [query_coeffs] are the
    [k] complex features of the (already transformed) query side,
    [distance] computes the full distance used in postprocessing from
    an entry id, and
    [spec] transforms the data side during traversal. Its search region
    is one-sided, within ε of [query_coeffs]. The result is exact
    provided [Spectrum.prefix] of the transformed data spectrum against
    [query_coeffs] lower-bounds [distance] — the Lemma 1 condition. *)
val range_generic :
  ?spec:Spec.t ->
  t ->
  query_coeffs:Simq_dsp.Cpx.t array ->
  epsilon:float ->
  distance:(int -> float) ->
  range_result

(** {2 Prepared transformations}

    {!range} and {!range_generic} prepare the transformation (the
    lowering; the stretch is {!Spec.stretch}'s shared one) on every
    call. Workloads that pose many queries under one transformation —
    the index join — prepare once instead. *)

type prepared

(** [prepare t spec] precomputes everything [spec] needs against this
    index. *)
val prepare : t -> Spec.t -> prepared

(** [range_attempt t prepared bstate q ~epsilon] is one attempt of
    {!range_checked}'s body for the prepared query [q] (of length
    [Spec.output_length], in the comparison space already — no side
    constraint, sketch or profile): the search region around [q]'s
    first [k] coefficients, within the mirrored radius where the twins
    apply ({!twin_slack}), each node visit charged to and faulted by
    [bstate], then each candidate charged one comparison and checked
    against {!prepared_distance}'s kernel, which abandons at ε. Node
    accesses come back in the result and are not credited to the
    tree's counter: the caller credits the attempt that succeeds. The
    answers are entry ids: no entry is copied out.
    Raises {!Simq_fault.Budget.Exceeded} and
    {!Simq_fault.Injector.Transient_fault} out of [bstate]: run it
    inside {!Simq_fault.Retry.with_retries}. *)
val range_attempt :
  t ->
  prepared ->
  Simq_fault.Budget.state option ->
  Dataset.query ->
  epsilon:float ->
  (int * float) found

(** [prepared_distance t prepared q] is the exact full distance
    [id -> D(T entry, q)] used by postprocessing and NN refinement:
    {!Simq_dsp.Flat.sq_dist} over the stored spectra, [0 .. n-1] in
    ascending order, for length-preserving transformations (the
    identity included, so index, scan and degraded distances are the
    same doubles), time-domain for the warp. *)
val prepared_distance :
  t -> prepared -> Dataset.query -> int -> float
