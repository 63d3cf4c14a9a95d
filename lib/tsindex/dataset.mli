(** A prepared data set: every series normalised and transformed to the
    frequency domain once, as the paper does before indexing
    (Section 5: “for every time series, we first transformed it to the
    normal form, and then we found its Fourier coefficients”).

    The spectrum stored is that of the {e normal form}; the original
    mean and standard deviation ride along and become the first two
    index dimensions. *)

type entry = {
  id : int;
  name : string;
  series : Simq_series.Series.t;  (** the original series *)
  normal : Simq_series.Series.t;  (** its normal form *)
  spectrum : Simq_dsp.Flat.t;
      (** full unitary DFT of [normal], flat (re/im interleaved, see
          {!Simq_dsp.Flat}); coefficient 0 is always 0 *)
  mean : float;
  std : float;
}

type t

(** [of_relation ?pool r] prepares every tuple; the per-entry
    normalisation + FFT (the dominant build cost) fans out over [pool]
    (default {!Simq_parallel.Pool.default}) with results identical to a
    sequential build. Raises [Invalid_argument] when the relation is
    empty or holds series of unequal lengths. *)
val of_relation : ?pool:Simq_parallel.Pool.t -> Simq_storage.Relation.t -> t

(** [of_series ?pool ~name batch] shortcut: wraps the batch in a
    relation and prepares it. *)
val of_series :
  ?pool:Simq_parallel.Pool.t -> name:string -> Simq_series.Series.t array -> t

(** [insert t ~name data] validates, stores and prepares one more
    series (appending it to the backing relation); its id is the new
    cardinality minus one. Raises [Invalid_argument] when the length
    differs from the data set's. *)
val insert : t -> name:string -> Simq_series.Series.t -> entry

(** [prepare_query ?normalise q] transforms an external query series the
    same way (it need not have the data-set length — warp queries are
    longer). With [~normalise:false] the series is used verbatim: pass a
    query that is {e already} in the comparison space, e.g. the moving
    average of a normal form when matching “series whose smoothed normal
    forms track this curve”. *)
val prepare_query : ?normalise:bool -> Simq_series.Series.t -> entry

(** [side_ranges ?mean_window ?std_band query] is the pair of closed
    ranges GK95-style side constraints allow for an answer's mean and
    standard deviation, both taken from the {e raw} [query]:
    [mean_window w] gives [[m - w, m + w]] around the query's mean [m],
    [std_band f] gives [[s / f, s * f]] around its deviation [s]; an
    absent constraint is [None]. The index appends these ranges as its
    trailing mean/std dimensions and the scans test them on each entry
    ({!within_sides}), both through
    {!Simq_geometry.Region.contains_value}, so both keep exactly the
    same entries. Raises [Invalid_argument] when [w < 0] or [f < 1]. *)
val side_ranges :
  ?mean_window:float ->
  ?std_band:float ->
  Simq_series.Series.t ->
  Simq_geometry.Region.range option * Simq_geometry.Region.range option

(** [within_sides ranges entry] holds when the entry's mean and
    deviation each lie in the matching present range of [ranges]
    ({!side_ranges}) — the membership test the index applies to its
    mean/std dimensions. *)
val within_sides :
  Simq_geometry.Region.range option * Simq_geometry.Region.range option ->
  entry ->
  bool

(** [head_sq_dist t ~stretch id qs acc] sets [acc.sum] to the
    {!Simq_dsp.Flat.sq_dist} sum of entry [id]'s coefficients
    [0 .. h-1] against [qs]'s, where [h] is [min head_width n] for
    {!Simq_dsp.Flat.head_width}, and returns [h]. The coefficients come
    from the head table: an unstretched copy of every entry's first
    [head_width] spectrum coefficients, one 64-byte cache line per
    entry, filled by {!of_relation} and grown by {!insert}. They are
    copies of [spectrum]'s doubles, so resuming [acc] from coefficient
    [h] over [spectrum] gives the sum over [spectrum] alone bit for bit:
    nearest-neighbour search queues entries under the head sum and
    refines them by that resumption ({!Kindex.nearest}). Raises
    [Invalid_argument] for an unknown id. *)
val head_sq_dist :
  t ->
  stretch:Simq_dsp.Flat.t option ->
  int ->
  Simq_dsp.Flat.t ->
  Simq_dsp.Flat.acc ->
  int

(** [entries t] is a snapshot of the live entries. *)
val entries : t -> entry array
val get : t -> int -> entry
val cardinality : t -> int

(** [series_length t] is the common length [n]. *)
val series_length : t -> int

(** [relation t] is the backing relation (for page-accounting scans). *)
val relation : t -> Simq_storage.Relation.t
