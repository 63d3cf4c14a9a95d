(** Weight windows for moving averages.

    A window is a short vector of weights [w_1 … w_m]. The paper's m-day
    moving average uses the uniform window [1/m … 1/m]; trend-prediction
    variants weight recent days more, smoothing variants weight the
    centre more (Section 3.2). *)

type t = private {
  weights : float array;  (** [m] weights, finite, summing to 1. *)
}

(** [uniform m] is the equal-weight window of width [m].
    Raises [Invalid_argument] when [m <= 0]. *)
val uniform : int -> t

(** [triangular m] weights the centre of the window most, linearly
    decaying towards both ends; used for smoothing. *)
val triangular : int -> t

(** [ascending m] weights the most recent day most, linearly decaying
    towards the oldest; used for trend prediction. *)
val ascending : int -> t

(** [exponential ~alpha m] is the window [alpha·(1-alpha)^i] renormalised
    to sum to 1. Raises [Invalid_argument] unless [0 < alpha <= 1]. *)
val exponential : alpha:float -> int -> t

(** [custom weights] validates an arbitrary window: weights must be
    finite and sum to a non-zero total; they are renormalised to sum
    to 1. *)
val custom : float array -> t

val width : t -> int

(** [kernel n w] is the length-[n] circular-convolution kernel: the
    weights followed by zeros (the vector [m₃] of Example 1.1 padded to
    signal length). Raises [Invalid_argument] when [width w > n]. *)
val kernel : int -> t -> float array

(** [transfer n w] is the frequency response of [kernel n w]: its
    unnormalised DFT [H_f = Σ_t kernel_t e^(-2π·t·f·j/n)]. Multiplying a
    signal's DFT element-wise by [transfer n w] equals taking the
    circular moving average in the time domain, which is the
    transformation [T_mavg = (a, 0)] of Section 3.2. *)
val transfer : int -> t -> Flat.t

val pp : Format.formatter -> t -> unit
