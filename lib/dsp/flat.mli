(** Flat spectra and the one frequency-domain distance kernel.

    A flat spectrum stores a length-[n] complex vector as a float64
    {!Bigarray.Array1.t} of length [2n] with real and imaginary parts
    interleaved: coefficient [f] sits at indices [2f] (re) and [2f+1]
    (im). Its doubles are unboxed, so reading a coefficient allocates
    nothing — unlike a [Cpx.t array], whose every element is a boxed
    record and whose [Cpx.sub]/[Cpx.mul] allocate a fresh one.

    It is one type for every spectrum buffer: a data set's stored
    spectra, a query's spectrum and a stretch. A buffer may live on the
    C heap ({!create}) or be a view of a mapped file (the prepared
    image, {!Simq_tsindex.Image.read}): the kernels read both through
    the same loads, one body each. The OCaml heap holds only the
    buffer's small header, so a data set's spectra do not count in
    [Gc.top_heap_words].

    Several flat spectra may share one buffer, one after another; the
    kernel then takes each one's offset, counted in coefficients. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [of_cpx zs] is the flat copy of [zs]. *)
val of_cpx : Cpx.t array -> t

(** [create n] is an uninitialised buffer of [n] coefficients. *)
val create : int -> t

(** [zeros n] is a buffer of [n] coefficients, every double [0.]. *)
val zeros : int -> t

(** [length x] is the number of complex coefficients of [x]. *)
val length : t -> int

(** [coeff x f] is coefficient [f] of [x]. Raises [Invalid_argument]
    when [f] is not a coefficient of [x]. *)
val coeff : t -> int -> Cpx.t

(** [sub x ~pos ~len] is coefficients [pos .. pos+len-1] of [x] as a
    boxed vector (for feature extraction, not for hot loops). *)
val sub : t -> pos:int -> len:int -> Cpx.t array

(** [to_cpx x] is every coefficient of [x] as a boxed vector, the
    inverse of {!of_cpx}. *)
val to_cpx : t -> Cpx.t array

(** [blit x ~pos y ~off ~len] copies coefficients [pos .. pos+len-1]
    of [x] to coefficients [off .. off+len-1] of [y], double for
    double, by one [memmove] (overlapping ranges included), allocating
    nothing. Raises [Invalid_argument] when a range falls outside its
    buffer. *)
val blit : t -> pos:int -> t -> off:int -> len:int -> unit

(** [energy x] is the sum of the squares of [x]'s doubles in index
    order: [Σ_f |x_f|²], by the fold
    [Simq_dsp.Spectrum.energy_real] applies to a float array. *)
val energy : t -> float

(** [stretch_prefix ~stretch x ~xo ~len dst ~off] writes
    [stretch.(f) · x.(xo + f)] for [f] in [0 .. len-1] into coefficient
    [off + f] of [dst], with [Complex.mul]'s formula (so the result is
    bit-identical to [Cpx.mul_arrays] on the boxed vectors). Raises
    [Invalid_argument] when a range falls outside its buffer. *)
val stretch_prefix : stretch:t -> t -> xo:int -> len:int -> t -> off:int -> unit

(** [stretch_into ~stretch x dst ~off] is {!stretch_prefix} over every
    coefficient of [x] from 0. Raises [Invalid_argument] when the
    lengths disagree or [dst] is too short. *)
val stretch_into : stretch:t -> t -> t -> off:int -> unit

(** The running sum of {!sq_dist}: an all-float record, so storing into
    it allocates nothing. It is also the cell through which
    {!dist_within} and the nearest-neighbour traversal
    ({!Simq_rtree.Nn.best_first}) pass floats without boxing them. *)
type acc = { mutable sum : float }

(** [acc ()] is a fresh accumulator at 0. *)
val acc : unit -> acc

(** [sq_dist ~stretch ~limit ~lo ~hi x xo y yo acc] adds to [acc.sum],
    for each coefficient [f] in [lo .. hi-1] in ascending order,
    [|s_f·x_f - y_f|²], where [x_f] is coefficient [xo + f] of [x]
    (likewise [y_f] is coefficient [yo + f] of [y]) and [s_f] is
    coefficient [f] of [stretch] ([x_f] is used as is when [stretch] is
    [None]). It stops right after the first
    coefficient that leaves [acc.sum > limit] (early abandoning; pass
    [infinity] to never abandon) and returns the number of
    coefficients it touched.

    The arithmetic is fixed: [Complex.mul]'s formula for [s_f·x_f],
    then the subtraction, then [sum +. (dr*.dr +. di*.di)] — exactly the
    boxed [Cpx.sub]/[Cpx.mul] loop, so sums and abandon decisions are
    bit-identical to it. The kernel allocates nothing. Raises
    [Invalid_argument] when a range falls outside an array. *)
val sq_dist :
  stretch:t option ->
  limit:float ->
  lo:int ->
  hi:int ->
  t ->
  int ->
  t ->
  int ->
  acc ->
  int

(** [dist_within ~stretch ~lo ~hi x xo y yo acc ~within] resumes
    {!sq_dist} from [acc.sum] over coefficients [lo .. hi-1] with limit
    [w *. w], where [w] is [within.sum] on entry, and sets
    [within.sum] to [sqrt acc.sum]: the distance over every coefficient
    summed into [acc], in ascending order, unless a partial sum's root
    is strictly greater than [w], in which case that root (a lower
    bound above [w]) is set. A partial sum past the limit whose root is
    not strictly greater than [w] (a rounding case) is completed with no
    limit, so a result [<= w] is always the exact distance, and no sum
    whose distance is [<= w] is abandoned: rounded addition of
    non-negative terms is monotone, so every partial sum is at most the
    whole. Nearest-neighbour refinement abandons an entry this way
    against the k-th best distance so far. Both the abandon distance
    and the result travel in the cell [within], so the call boxes no
    float. *)
val dist_within :
  stretch:t option ->
  lo:int ->
  hi:int ->
  t ->
  int ->
  t ->
  int ->
  acc ->
  within:acc ->
  unit

(** [rounding_slack ~n ~gain ~norm] is the slack τ of a one-sided search
    radius over spectra of series of length [n] compared under a
    stretch none of whose coefficients exceeds [gain] in modulus, when
    [norm] bounds the norm of every series compared (a normal form of
    length [n] has norm [√n]): [1e-12·n²·log2(4n)·2·max(1, gain)·norm].
    With it, every entry whose kernel distance (the warp's time-domain
    distance) is within ε has index features within
    [ε·(1 + 1e-9) + τ] of the query's (the proof is in [flat.ml]). *)
val rounding_slack : n:int -> gain:float -> norm:float -> float

(** {1 The row kernel}

    The pairwise join compares entries pair by pair. Its comparisons
    mostly abandon within a few coefficients, so the row kernel reads
    those from a small contiguous {e head} buffer and reaches for an
    entry's full spectrum only while a pair is still under the abandon
    limit. The entries sit at {e positions} [0 .. count-1], in an order
    the caller may choose (the band join sorts them by {!sort_key}). *)

(** [head_width] is 4: the number of leading coefficients stored
    stretched in the head buffer — 4 × 16 bytes, one 64-byte cache
    line per entry. On 200 PAIRS specs of the benchmark's mix (1,067
    series of 128 points; id, rev, mavg and wma; ε from 0.5 to 3) a
    band join's window comparison ends within them 97.0% of the time,
    and 84.5% of the pairs its coefficient-1 pre-pass keeps would
    abandon within them: {!within_band}'s head exit drops 95.7% of
    those survivors before the per-pair kernel runs. *)
val head_width : int

(** A relation prepared for {!within_row} and {!within_band}: the
    buffer holding its stored spectra with each position's offset in
    it, one stretch, and the head buffer
    holding the first [head_width] stretched coefficients of every
    position, one after another (zero beyond coefficient [w - 1] when
    the rows' width [w] is below [head_width]: adding [0.] leaves a sum
    and its abandon tests unchanged). *)
type rows

(** [sort_key ~stretch heads ~slot] is the real part of
    [stretch.(1)·h.(1)] by [Complex.mul]'s formula, where [h] is the
    [head_width] coefficients of [heads] from coefficient
    [slot·head_width] ([0.] when [stretch] has fewer than two
    coefficients): the very double {!rows} stores as the real part of
    that slot's head coefficient 1, which {!within_band}'s pre-pass
    reads. Raises [Invalid_argument] when the slot does not fit in
    [heads]. *)
val sort_key : stretch:t -> t -> slot:int -> float

(** [key_order keys] is the permutation that sorts [keys] stably by
    [Float.compare]: exactly the order
    [Array.stable_sort (fun a b -> Float.compare keys.(a) keys.(b))]
    leaves [Array.init (Array.length keys) Fun.id] in — NaN first,
    [-0.] equal to [0.], ties by ascending index. A merge sort
    specialised to float keys: it calls no closure and boxes no
    float. *)
val key_order : float array -> int array

(** [rows ~stretch ?order ~heads buf slots] prepares the spectra of
    [buf] under [stretch]. Spectrum [r] is the [w = length stretch]
    coefficients of [buf] from coefficient [slots.(r)·w] (the rows'
    width), and [heads] holds its first [head_width] coefficients from
    coefficient [slots.(r)·head_width] (a dense head table, one cache
    line per slot, zero beyond coefficient [w − 1]; they must be copies of the
    spectrum's). Position [p] holds spectrum [order.(p)] ([order]
    defaults to the identity, and should be a permutation). The heads
    are stretched from [heads], so building the rows reads nothing of
    [buf]; the spectra are read in place, never copied, and only the
    head buffer is made: [Array.length slots × head_width]
    coefficients. Raises [Invalid_argument] when a slot does not fit
    in [buf] or [heads], or [order]'s length differs from [slots]'s. *)
val rows : stretch:t -> ?order:int array -> heads:t -> t -> int array -> rows

(** [within_row r ~limit ~threshold ~i ~j0 hits] compares position [i]
    with each position [j] in [j0 .. count-1], in ascending order, and
    writes every [j] whose squared distance is [<= threshold] into
    [hits] from index 0; it returns the number written. [hits] must
    hold at least [count - j0] elements.

    Per pair the arithmetic is exactly {!sq_dist}'s with [~lo:0 ~hi:w]
    over two spectra pre-stretched by {!stretch_into}: coefficient [f]
    is [stretch.(f)·x.(f)] by [Complex.mul]'s formula (read from the
    head buffer for [f < head_width], computed in registers for both
    sides beyond it), then the subtraction, then
    [sum +. (dr*.dr +. di*.di)] in ascending [f], stopping right after
    the first coefficient that leaves [sum > limit] (pass [infinity] to
    never abandon), and the final test is [sum <= threshold]. Hits are
    therefore bit-identical to that double loop. The kernel allocates
    nothing. Raises [Invalid_argument] when [i] is not a position,
    [j0] is outside [0 .. count], or [hits] is too short. *)
val within_row :
  rows ->
  limit:float ->
  threshold:float ->
  i:int ->
  j0:int ->
  int array ->
  int

(** [within_band r ~limit ~threshold ~i ~j1 buf] is {!within_row}
    over positions [i+1 .. j1-1] only, with the same hits in the same
    order, written into [buf] from index 0; it returns their number.
    [buf] must hold at least [j1 - i - 1] elements. This needs
    [threshold <= limit], and then its hits are exactly those of
    [within_row ~limit:infinity]: a pair whose sum passes [limit] at
    any coefficient ends above [limit >= threshold] whether or not it
    is abandoned there, since each later coefficient adds a
    non-negative term.

    Two filters run before the per-pair kernel, both against the
    threshold.
    - A branch-free pre-pass keeps each [j] whose coefficient-1 term
      [T_1 = dr*.dr +. di*.di] — the kernel's own, over the head's
      doubles — is [<= threshold].
    - The head exit then keeps each survivor whose head terms
      [(T_1 +. T_2) +. T_3], over coefficients 1 .. [head_width − 1],
      are [<= threshold], and only those run the kernel.

    Neither drops a hit: rounded addition is monotone in each operand
    and every term is non-negative, so the kernel's sum after
    coefficient 3, [((T_0 +. T_1) +. T_2) +. T_3], is at least
    [(T_1 +. T_2) +. T_3], which is at least [T_1], and the final sum
    at least that; a pair above the threshold there is no hit. Over
    weighted half spectra ({!Simq_dsp.Fft.weighted_half_into}) each
    term already counts its coefficient's twin, so the filters are as
    tight as the twins allow, with no slack. The kernel allocates
    nothing. Raises [Invalid_argument] when [i] is not a position, [j1]
    is outside [i+1 .. count], [buf] is too short, or [limit] is below
    [threshold]. *)
val within_band :
  rows ->
  limit:float ->
  threshold:float ->
  i:int ->
  j1:int ->
  int array ->
  int
