(** Fast Fourier Transform with the same unitary [1/sqrt n] convention
    as {!Dft}.

    Power-of-two lengths use an iterative radix-2 Cooley–Tukey; every
    other length goes through Bluestein's chirp-z algorithm, so the
    transform is O(n log n) for arbitrary [n] and agrees with {!Dft}
    within rounding error.

    There is one transform, over flat buffers ({!Flat.t}, re/im
    interleaved in one [float array]): {!fft_inplace} and
    {!ifft_inplace}. It allocates only Bluestein's scratch buffers, and
    nothing at all for power-of-two lengths. The boxed entry points
    ({!fft}, {!ifft}, {!fft_real}) are conversions around it.

    The arithmetic is fixed, so every spectrum is bit for bit that of
    the textbook boxed [Complex.t] formulation: the same bit-reversal
    swaps; butterflies [v = x_q·w] by [Complex.mul]'s formula
    [(xr·wr − xi·wi, xr·wi + xi·wr)], then [u + v] and [u − v]; the
    twiddle advanced by the recurrence [w := w·wstep] from [1] at each
    block, with [wstep = (cos θ, sin θ)]; and a final multiply of every
    component by [1/sqrt n]. *)

(** [fft_inplace x] replaces the flat vector [x] with its forward
    transform. Raises [Invalid_argument] when [x] has odd length. *)
val fft_inplace : Flat.t -> unit

(** [ifft_inplace x] replaces [x] with its inverse transform. Raises
    [Invalid_argument] when [x] has odd length. *)
val ifft_inplace : Flat.t -> unit

(** [half n] is [⌊n/2⌋ + 1], the number of coefficients of a weighted
    half spectrum of a length-[n] series ([n >= 1]). *)
val half : int -> int

(** [weighted_half_into ~scratch x dst ~off] writes the weighted half
    spectrum of the real series [x] into coefficients
    [off .. off + h - 1] of [dst], for [h = half n] and [n] the length
    of [x]: coefficient [f] of {!fft_real_flat}[ x], times [fl(√2)] when
    [0 < 2f < n], as is for [f = 0] and, for even [n], [f = n/2].
    The transform runs in the first [n] coefficients of [scratch], which
    may be [dst] itself when [off = 0]; nothing is allocated for a
    power-of-two length.

    For a real series coefficient [n − f] is the conjugate of
    coefficient [f], so by Parseval the squared norm of the [h]
    weighted coefficients is the series' (up to rounding), and for two
    series of one length, and any stretch that maps real series to real
    series, the kernel's distance over their weighted halves is the
    Euclidean distance of the series. Every prefix of that sum is then
    a lower bound over the same doubles, with no slack: rounded
    addition of non-negative terms is monotone. Raises
    [Invalid_argument] when [x] is empty, [scratch] is shorter than [x]
    or the half does not fit in [dst]. *)
val weighted_half_into :
  scratch:Flat.t -> float array -> Flat.t -> off:int -> unit

(** [fft_real_flat x] is the forward transform of the real signal [x]
    as a fresh flat vector of [length x] coefficients: [x] is written
    straight into the output buffer, which is then transformed and
    scaled in place, so for a power-of-two length the output buffer is
    the only allocation. *)
val fft_real_flat : float array -> Flat.t

(** [fft x] is the forward transform. *)
val fft : Cpx.t array -> Cpx.t array

(** [ifft x] is the inverse transform; [ifft (fft x) = x] up to
    rounding. *)
val ifft : Cpx.t array -> Cpx.t array

(** [fft_real x] is the forward transform of a real signal, the boxed
    copy of {!fft_real_flat}. *)
val fft_real : float array -> Cpx.t array

(** [is_power_of_two n] is true when [n] is a positive power of two. *)
val is_power_of_two : int -> bool

(** [next_power_of_two n] is the smallest power of two that is [>= n].
    Raises [Invalid_argument] for [n <= 0]. *)
val next_power_of_two : int -> int
