(** Multi-resolution sketch filtering for similarity queries.

    A sketch is a tiny per-series summary whose distance to the query
    sketch {e lower-bounds} the true (normal-form) distance, so
    dismissing a candidate whose sketch distance already exceeds the
    range can never lose an answer — the funnel preserves the Lemma 1
    guarantee of no false dismissals while the exact postfilter only
    touches the survivors. Two resolutions are kept per series:

    - {b coarse}: the partial frequency-domain distance over the first
      few DFT coefficients and their conjugate mirrors (the
      high-energy ends of the spectrum the k-index itself is built
      on), valid for every length-preserving transformation because
      the stretch acts coefficient-wise;
    - {b segment}: a piecewise-constant summary — per-segment means of
      the normal form — whose length-weighted mean differences
      lower-bound the euclidean distance by Cauchy–Schwarz. Identity
      queries only, where data and query sides share the time axis.

    Time-warp queries change the series length, so no sketch level
    applies and {!funnel} returns [None] — the query runs exactly as
    without a sketch. *)

type t

type config = {
  coarse : int;
      (** DFT coefficients taken from {e each} end of the spectrum for
          the coarse level (so up to [2 * coarse] terms). Must be
          >= 1. *)
  segments : int;
      (** segment count of the piecewise-constant level (capped at the
          series length). Must be >= 1. *)
}

(** [{ coarse = 2; segments = 8 }]. *)
val default : config

(** [create ?config dataset] precomputes the segment sketches of every
    entry in [dataset]. Coarse sketches need no extra storage — they
    read the spectra the dataset already holds. Raises
    [Invalid_argument] on a non-positive [config] field. *)
val create : ?config:config -> Simq_tsindex.Dataset.t -> t

val config : t -> config

(** [spec_levels spec] is the number of funnel levels available under
    [spec]: 0 for a warp, 2 for the identity, 1 for the other
    length-preserving transformations. Feed it to the admission cost
    model ([sketch_levels]). *)
val spec_levels : Simq_tsindex.Spec.t -> int

(** [funnel t ~spec ~query] is the candidate prefilter for one
    prepared query, coarse level first, or [None] when [spec] supports
    no sketch. Each level's bound is a lower bound on the exact
    postfilter distance (including the slack needed to absorb
    last-ulp rounding), so {!Simq_tsindex.Kindex} may dismiss on it
    without breaking exact-mode parity. Dismissals are counted in the
    [simq_sketch_filtered_total{level}] metric family. *)
val funnel :
  t ->
  spec:Simq_tsindex.Spec.t ->
  query:Simq_tsindex.Dataset.query ->
  Simq_tsindex.Kindex.prefilter option

(** [nn_bound t ~spec ~query] is the strongest per-entry lower bound
    (the max over the available levels), or [None] when [spec]
    supports no sketch. Passed to {!Simq_tsindex.Kindex.nearest}[
    ~sketch], it replaces the k-index's head bound as the key entries
    are queued under; answers are unchanged. No executor passes it:
    the head bound is cheaper per entry and prunes as well. *)
val nn_bound :
  t ->
  spec:Simq_tsindex.Spec.t ->
  query:Simq_tsindex.Dataset.query ->
  (Simq_tsindex.Dataset.entry -> float) option
