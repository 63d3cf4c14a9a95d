(** A prepared data set: every series normalised and transformed to the
    frequency domain once, as the paper does before indexing
    (Section 5: “for every time series, we first transformed it to the
    normal form, and then we found its Fourier coefficients”).

    The spectrum stored is that of the {e normal form}; the original
    mean and standard deviation ride along and become the last two
    index dimensions. The normal form itself is not stored: by
    Parseval the spectrum stands for it in every length-preserving
    distance, and the time-domain paths (the warp, the join's
    transformed normals) recompute it on demand ({!normal}).

    The spectra live in one contiguous flat buffer ({!spectra}, a
    float64 {!Simq_dsp.Flat.t} outside the OCaml heap), one
    {e slot} of [n] coefficients per entry, beside a head table of
    every slot's first {!Simq_dsp.Flat.head_width} coefficients. Ids
    are stable; the slot of an id is the data set's business
    ({!slot}, {!id_at}). Slots start in id order; {!lay_out} permutes
    them in place (the k-index lays them out in its tree's leaf order,
    so a traversal reads them nearly sequentially). Every reader takes
    (buffer, slot) and computes the same doubles in any layout.

    The series and their names stay in the backing relation
    ({!Simq_storage.Relation}), one read-only store of rows of one
    length; the data set holds no copy of them. Queries answer entry
    ids, and only a caller that renders or inspects an answer reads
    its name or series by id ({!name}, {!series}). The moments are two
    float64 buffers by id. A cold build ({!of_relation}, {!sub}) fills
    fresh buffers; a warm open ({!of_prepared} from {!Image.read})
    adopts views of the mapped image file for every buffer, so their
    pages are the page cache's, read in place and faulted in as they
    are touched, never copied into fresh memory.

    A data set is built once: its buffers and cardinality never change
    after {!of_relation} or {!sub}, and only {!lay_out} moves slots.
    A {!sub} block's relation and moments are views of its parent's,
    so nothing may write to them. *)

(** An entry, as {!get} hands it out for inspection: its id, name,
    moments, and a fresh copy of its original series. No query path
    builds one. *)
type entry = {
  id : int;
  name : string;
  series : Simq_series.Series.t;  (** a copy of the original series *)
  mean : float;  (** its mean *)
  std : float;  (** its standard deviation *)
}

(** A prepared query: the series compared against ({!prepare_query}) and
    its full unitary DFT, flat (re/im interleaved, see
    {!Simq_dsp.Flat}). *)
type query = {
  qnormal : Simq_series.Series.t;
  qspectrum : Simq_dsp.Flat.t;
}

type t

(** [of_relation ?pool r] prepares every tuple; the per-entry
    normalisation + FFT (the dominant build cost) fans out over [pool]
    (default {!Simq_parallel.Pool.default}) with results identical to a
    sequential build. Raises [Invalid_argument] when the relation is
    empty. *)
val of_relation : ?pool:Simq_parallel.Pool.t -> Simq_storage.Relation.t -> t

(** [of_series ?pool ~name batch] shortcut: wraps the batch in a
    relation and prepares it. *)
val of_series :
  ?pool:Simq_parallel.Pool.t -> name:string -> Simq_series.Series.t array -> t

(** A float64 buffer of one double per entry, by id (the same type as
    {!Simq_dsp.Flat.t}, counted in doubles). *)
type floats = Simq_storage.Words.buffer

(** [of_prepared r ~means ~stds ~ids ~heads spectra] is the data set
    of [r] laid out in the slot order [ids] (slot [s] holds entry
    [ids.(s)]), from what {!of_relation} and {!lay_out} computed for
    it: entry [id]'s moments [means.{id}] and [stds.{id}], the head
    table [heads] and the spectrum buffer [spectra] in slot order.
    Every buffer is taken over as it is, never copied — the image's
    mapped views, whose pages stay the file's ({!Image}). No FFT runs,
    nothing is normalised, and no series is read. Given [t]'s own
    moments, slot order, head table and buffer, every field, double
    and slot equals [t]'s. Raises [Invalid_argument] when [r] is
    empty, when the buffers do not fit [r], or when [ids] is not a
    permutation of the ids. *)
val of_prepared :
  Simq_storage.Relation.t ->
  means:floats ->
  stds:floats ->
  ids:int array ->
  heads:Simq_dsp.Flat.t ->
  Simq_dsp.Flat.t ->
  t

(** [sub t ~name ~lo ~width] is the data set of [t]'s ids
    [[lo, lo + width)], renumbered from 0, over the relation
    {!Simq_storage.Relation.sub}[ ~name ~lo ~width] of [t]'s. Nothing
    is prepared again and no series is copied: the block's rows, names
    and moments are views of [t]'s for the id range, and only its
    spectra and head rows are copied, from the parent's slots into the
    block's own buffers, slots in id order. Every field, double and
    slot but the relation's name equals that of [of_series ~name] over
    the block's series. The spectra are copies, not a view of [t]'s
    buffer: [t]'s slots follow its own tree's leaf order, and the
    block is laid out anew by its own {!lay_out}. Raises
    [Invalid_argument] unless [0 <= lo] and [1 <= width <= cardinality
    t - lo]. *)
val sub : t -> name:string -> lo:int -> width:int -> t

(** [lay_out t order] moves entry [order.(s)]'s spectrum and head to
    slot [s], for every slot, by an in-place cycle permutation (no
    second copy of the buffer exists at any time). Answers, distances
    and counters of every query are unchanged: only the memory order
    of the spectra moves. Not safe while another domain queries [t].
    On a data set opened from an image the moved rows are private
    copies of the mapped pages: the file never changes.
    Raises [Invalid_argument] when [order] is not a permutation of the
    ids. *)
val lay_out : t -> int array -> unit

(** [prepare_query ?normalise q] transforms an external query series the
    same way (it need not have the data-set length — warp queries are
    longer). With [~normalise:false] the series is used verbatim: pass a
    query that is {e already} in the comparison space, e.g. the moving
    average of a normal form when matching “series whose smoothed normal
    forms track this curve”. *)
val prepare_query : ?normalise:bool -> Simq_series.Series.t -> query

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

(** [within_sides ranges t id] holds when entry [id]'s mean and
    deviation each lie in the matching present range of [ranges]
    ({!side_ranges}) — the membership test the index applies to its
    mean/std dimensions. *)
val within_sides :
  Simq_geometry.Region.range option * Simq_geometry.Region.range option ->
  t ->
  int ->
  bool

(** [spectra t] is the spectrum buffer: slot [s]'s spectrum is the
    [n] coefficients from coefficient [s·n] (pass [s·n] as the
    kernel's offset). *)
val spectra : t -> Simq_dsp.Flat.t

(** [heads t] is the head table: slot [s]'s first
    {!Simq_dsp.Flat.head_width} spectrum coefficients from coefficient
    [s·head_width], copies of the buffer's doubles, zero beyond
    coefficient [n − 1] — one 64-byte cache line per slot, in slot
    order (pass it to {!Simq_dsp.Flat.rows} and
    {!Simq_dsp.Flat.sort_key}). Like {!spectra} it is the data set's
    own buffer, shared: read it, never write to it. *)
val heads : t -> Simq_dsp.Flat.t

(** [slot t id] is the slot holding entry [id]'s spectrum; [id_at t s]
    is the entry whose spectrum slot [s] holds. Raise
    [Invalid_argument] for an unknown id or slot. *)
val slot : t -> int -> int

val id_at : t -> int -> int

(** [spectrum t id] is a copy of entry [id]'s spectrum (for tests and
    inspection, not for hot loops). *)
val spectrum : t -> int -> Simq_dsp.Flat.t

(** [head_sq_dist t ~stretch s qs acc] sets [acc.sum] to the
    {!Simq_dsp.Flat.sq_dist} sum of slot [s]'s coefficients
    [0 .. h-1] against [qs]'s, where [h] is [min head_width n] for
    {!Simq_dsp.Flat.head_width}, and returns [h]. The coefficients come
    from the head table: an unstretched copy of every slot's first
    [head_width] spectrum coefficients, one 64-byte cache line per
    slot, in slot order. They are copies of the buffer's doubles, so
    resuming [acc] from coefficient [h] over the slot's spectrum gives
    the sum over the spectrum alone bit for bit: nearest-neighbour
    search queues entries under the head sum and refines them by that
    resumption ({!Kindex.nearest}). With [mirror], coefficient 0's
    term, the sum's first, is also written into [mirror.t0], for the
    twin abandon of {!Simq_dsp.Flat.dist_within}; the sum is the same.
    Raises [Invalid_argument] for an unknown slot. *)
val head_sq_dist :
  t ->
  stretch:Simq_dsp.Flat.t option ->
  ?mirror:Simq_dsp.Flat.mirror ->
  int ->
  Simq_dsp.Flat.t ->
  Simq_dsp.Flat.acc ->
  int

(** [head_twin_sq_dist t ~stretch s qs acc] sets [acc.sum] to
    [T_0 + 2·(T_1 + … + T_(h-1))], where [T_f] is the
    {!Simq_dsp.Flat.sq_dist} term of slot [s]'s coefficient [f]
    against [qs]'s, read from the head table like {!head_sq_dist}: the
    head coefficients counted with their twins [n−f], the mirrored
    bound's sum ({!Simq_dsp.Flat.rounding_slack}). Only a lower bound when
    the spectra are conjugate-symmetric under [stretch] and
    [n >= 2·head_width]. Raises [Invalid_argument] for an unknown
    slot. *)
val head_twin_sq_dist :
  t ->
  stretch:Simq_dsp.Flat.t option ->
  int ->
  Simq_dsp.Flat.t ->
  Simq_dsp.Flat.acc ->
  unit

(** [get t id] is entry [id], its series a fresh copy of its row;
    [entries t] is every entry, by id. They are for inspection only:
    the query paths read the buffers by id and answer ids. Raise
    [Invalid_argument] for an unknown id. *)
val get : t -> int -> entry

val entries : t -> entry array
val cardinality : t -> int

(** [series t id] is a fresh copy of entry [id]'s series, read from the
    relation's rows; [series_into t id out] writes it into [out]
    instead. [name t id] is its name, and [mean t id] and [std t id]
    its moments. Raise [Invalid_argument] for an unknown id;
    [series_into] also when [out]'s length differs. *)
val series : t -> int -> Simq_series.Series.t

val series_into : t -> int -> Simq_series.Series.t -> unit
val name : t -> int -> string
val mean : t -> int -> float
val std : t -> int -> float

(** [means t] and [stds t] are the moment buffers, by id. Like
    {!spectra} they are the data set's own, shared: read them, never
    write to them. *)
val means : t -> floats

val stds : t -> floats

(** [normal t id] is a fresh copy of entry [id]'s normal form,
    {!Simq_series.Normal_form.standardise} of its series by its stored
    mean and std: the formula {!Simq_series.Normal_form.decompose}
    applies to the same moments, so it equals
    [(decompose (series t id)).normalised] bit for bit. It allocates
    [n] doubles per call; the frequency-domain paths never need it. *)
val normal : t -> int -> Simq_series.Series.t

(** [series_length t] is the common length [n]. *)
val series_length : t -> int

(** [relation t] is the backing relation (for page-accounting scans). *)
val relation : t -> Simq_storage.Relation.t
