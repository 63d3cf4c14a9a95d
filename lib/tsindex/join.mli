(** The spatial self-join of Section 5 (Table 1): find all pairs of
    series whose (transformed) normal forms are within ε.

    Four methods, as in the paper:
    - {b a} — sequential scan of the Fourier-coefficient relation,
      comparing every sequence to all later ones, transformation applied,
      no early abandoning;
    - {b b} — as (a) with early abandoning of each distance
      computation, run as a band join (below) that compares only the
      pairs one stretched coefficient cannot already rule out;
    - {b c} — scan the relation and pose one index range query per
      sequence, {e without} the transformation ({!index} at its default
      spec, [Identity]);
    - {b d} — as (c), applying the transformation to both the index and
      the search regions ({!index} with [spec]).

    Methods a/b report each unordered pair once; c/d report every pair
    in both directions, exactly like the paper's answer-set sizes
    (3×2 and 12×2). Every method's verdict on a pair is the same: the
    index join's pairs, each unordered pair taken once, are the scan
    join's.

    The scan methods parallelise their outer loop over a
    {!Simq_parallel.Pool} (default the global pool) with row-chunk
    results merged in row order, so the pair list and the counters are
    bit-identical to a single-domain join. Under every spec but [Warp]
    they compare transformed spectra with the row kernel of
    {!Simq_dsp.Flat}: per query only the [count × Flat.head_width] head
    buffer is stretched, never a full copy of the relation. Method (a)
    calls {!Simq_dsp.Flat.within_row} on every later row. Method (b) is
    a band join. By Parseval and Lemma 1 any single stretched
    coefficient lower-bounds the pair distance, so the entries are
    sorted once per query by {!Simq_dsp.Flat.sort_key}, the real part
    of stretched coefficient 1. Row [p] of that order then takes only
    the contiguous window of later rows whose key is within
    [ε·(1 + 1e-9)] of its own, and {!Simq_dsp.Flat.within_band} runs
    the per-pair kernel on the window's pairs whose whole coefficient 1
    lies within ε. Hits are mapped back to ids as [(min, max)] and
    sorted into [(i, j)] order. Both methods' pairs are bit-identical
    to a double loop of {!Simq_dsp.Flat.sq_dist} over pre-stretched
    spectra: a pair outside the window or the pre-pass can never be a
    hit, and every other pair gets the same doubles in the same order.
    Method (b)'s [distance_computations] count the window pairs, not
    the [count (count - 1) / 2] of method (a).
    [Warp] compares the transformed normal forms in the time domain,
    every pair, for both methods.

    Every method takes an optional [?profile] ({!Simq_obs.Profile}):
    the scans record one flat [join.scan] operator node (rows in,
    comparisons as candidates, pairs out), the index methods one
    [join.index] node whose pages are the summed R-tree node accesses
    — recorded after the merge on the coordinating domain, so the
    recording is identical at every domain count. *)

type result = {
  pairs : (int * int) list;  (** entry-id pairs; self-pairs excluded *)
  distance_computations : int;
      (** pairs compared: every pair (a), the band-window pairs (b),
          or postprocessing computations (c, d) *)
  node_accesses : int;  (** R-tree nodes visited (0 for a, b) *)
  admission : Simq_admission.decision option;
      (** the admission decision of {!scan_checked}, when an
          [admission] policy was given; [None] for every other
          method *)
}

(** [scan_full kindex ?pool ?spec ~epsilon] — method (a). *)
val scan_full :
  ?pool:Simq_parallel.Pool.t -> ?spec:Spec.t -> ?profile:Simq_obs.Profile.t ->
  Kindex.t -> epsilon:float ->
  result

(** [scan_early_abandon kindex ?pool ?spec ~epsilon] — method (b). *)
val scan_early_abandon :
  ?pool:Simq_parallel.Pool.t -> ?spec:Spec.t -> ?profile:Simq_obs.Profile.t ->
  Kindex.t -> epsilon:float ->
  result

(** [scan_checked kindex ?pool ?spec ?abandon ?budget ~epsilon]
    is the scan join ((a) with [abandon:false], (b) — the default —
    otherwise) under a {!Simq_fault.Budget}: on every domain, each
    outer row is guarded once it is done — the budget checked and
    charged the row's comparisons (for (b), the row's band window) —
    so a blown comparison limit or deadline yields a typed error
    instead of an exception (with an unlimited budget the result is
    bit-identical to the unchecked scan). Attempts run under
    {!Simq_fault.Retry.with_retries}; the join reads no page and
    visits no node, so no fault site can make it retry.

    With [?admission] the join is vetted {e before} execution by
    {!Simq_admission.decide_pairs}: the comparison count
    [n (n - 1) / 2] — an upper bound on (b)'s window pairs — is a
    catalogue fact, so the decision is a pure
    function of the budget and a registry snapshot — identical at
    every domain count, and counted in the
    [simq_admission_decisions_total] family. A [Reject] returns the
    typed [Rejected] error with nothing executed (no transformed
    normal or spectrum materialised, no comparison run); an [Admit]
    runs the scan unchanged, bit-identical to an admission-off call.
    The decision comes back in the result's [admission]. *)
val scan_checked :
  ?pool:Simq_parallel.Pool.t ->
  ?spec:Spec.t ->
  ?abandon:bool ->
  ?budget:Simq_fault.Budget.t ->
  ?admission:Simq_admission.t ->
  ?profile:Simq_obs.Profile.t ->
  Kindex.t ->
  epsilon:float ->
  (result, Simq_fault.Error.t) Result.t

(** [index kindex ?spec ?budget ~epsilon] is the index join, methods
    (c) (the default [Identity]) and (d): each entry is posed as a
    prepared query to the k-index's own range attempt
    ({!Kindex.range_attempt}, the body {!Kindex.range_checked} runs),
    with [spec] (default [Identity]) on both sides. Outside the warp
    the query side is the entry's stored spectrum stretched once, so
    its features are the stretched prefix, the search region takes the
    mirrored radius where the twins apply, and each candidate's
    distance is the scan join's per-pair kernel sum, bit for bit,
    abandoned at ε: the pairs, each unordered pair taken once, are
    {!scan_full}'s. The warp's query is the warped normal form, its
    distance the time-domain one. The join reads one spectrum buffer
    and allocates no normal form outside the warp.

    The whole join is one attempt under {!Simq_fault.Retry.with_retries}
    on [budget] (default unlimited): every node visit is charged and
    consults the budget's fault plan, every candidate is charged one
    comparison, exactly as for a RANGE query, and the tree's access
    counter is credited only by the attempt that succeeds. Returns the
    pairs or a typed error — never a fault or budget exception;
    argument validation still raises [Invalid_argument]. The join runs
    on the calling domain. *)
val index :
  ?spec:Spec.t ->
  ?budget:Simq_fault.Budget.t ->
  ?profile:Simq_obs.Profile.t ->
  Kindex.t ->
  epsilon:float ->
  (result, Simq_fault.Error.t) Result.t
