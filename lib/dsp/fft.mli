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

(** [fft_real_into x dst ~off] writes the forward transform of the real
    signal [x] into coefficients [off .. off + n - 1] of the flat buffer
    [dst], for [n] the length of [x], bit for bit {!fft_real_flat}'s
    coefficients: several spectra can share one buffer with no
    transient copy. Raises [Invalid_argument] when they do not fit. *)
val fft_real_into : float array -> Flat.t -> off:int -> unit

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
