(** Subsequence matching — the [FRM94] direction the paper builds on.
    Example 1.2 asks for “the Euclidean distance between p and any
    subsequence of length four of s”; this module answers such queries
    with an index instead of a scan.

    Every length-[window] sliding window of every stored series is
    mapped to its first [k] DFT coefficients (raw, no normalisation —
    subsequence matching compares absolute shapes). Two index layouts:

    - {b point per window} (default): one degenerate rectangle per
      window position;
    - {b MBR trails} ([~trail:T]): the ST-index idea of [FRM94] — [T]
      consecutive windows share one entry whose rectangle bounds their
      feature points. Adjacent windows have similar spectra, so trails
      shrink the index by ~[T]× at the cost of more positions to check
      per candidate entry.

    Both layouts are exact: the coefficient-prefix distance lower-bounds
    the true window distance (Parseval), so the index pass returns a
    superset and postprocessing removes the false hits. *)

type t

type hit = {
  series_id : int;
  offset : int;  (** the matching window starts here *)
  distance : float;
}

(** [build ?k ?max_fill ?trail ~window series] indexes all sliding
    windows of all series. [k] (default 3) is the number of DFT
    coefficients; the index has [2k] dimensions. [trail] selects the
    MBR-trail layout with runs of that many windows. Raises
    [Invalid_argument] when [window] exceeds some series' length,
    [k > window], or [trail < 1]. *)
val build :
  ?k:int ->
  ?max_fill:int ->
  ?trail:int ->
  window:int ->
  Simq_series.Series.t array ->
  t

val window : t -> int

(** [windows_indexed t] is the number of searchable window positions. *)
val windows_indexed : t -> int

(** [index_entries t] is the number of R-tree data entries —
    [windows_indexed] without trails, roughly [windows/T] with. *)
val index_entries : t -> int

(** [range t ~query ~epsilon] is every window within [epsilon] of
    [query] (whose length must equal [window t]), sorted by series id
    then offset, plus the number of window positions postprocessed. *)
(** Both query entry points take an optional [?profile]
    ({!Simq_obs.Profile}): range queries record a [subseq.range]
    operator node with [subseq.descent]/[subseq.postfilter] children,
    nearest queries a [subseq.nearest] node whose pages are the node
    expansions. Profiling never changes an answer and costs nothing
    when absent. *)

val range :
  ?profile:Simq_obs.Profile.t ->
  t -> query:Simq_series.Series.t -> epsilon:float -> hit list * int

(** [nearest t ~query ~k] is the [k] closest windows, closest first
    (ties broken arbitrarily). Exact in both layouts: every popped
    trail contributes at least its best window, so the globally
    re-sorted expansion contains a valid k-NN set. *)
val nearest :
  ?profile:Simq_obs.Profile.t ->
  t -> query:Simq_series.Series.t -> k:int -> hit list
