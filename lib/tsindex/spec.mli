(** Named safe transformations on time series, given both as their
    time-domain ground truth and as the frequency-domain stretch vector
    [a] of [T = (a, 0)] (Section 3.2 and Appendix A).

    All of them are pure stretches ([b = 0]), hence safe in the polar
    representation by Theorem 3; [Identity] and [Reverse] have real [a]
    and are also safe in the rectangular representation by Theorem 2. *)

type t =
  | Identity  (** [T_i = (1, 0)]; used by Figures 8–9 *)
  | Moving_average of int
      (** [T_mavg m]: the circular m-day moving average *)
  | Weighted_ma of Simq_dsp.Window.t
      (** moving average with arbitrary weights (trend prediction /
          smoothing variants of Section 3.2) *)
  | Reverse  (** [T_rev = (-1, 0)] of Example 2.2 *)
  | Warp of int  (** time stretch by an integer factor (Appendix A) *)

(** [apply_series t s] is the transformation in the time domain — the
    executable specification the index path is tested against. *)
val apply_series : t -> Simq_series.Series.t -> Simq_series.Series.t

(** [stretch t ~n] is the length-[n] frequency multiplier, flat:
    applying [t] to a series of length [n] multiplies its [f]-th unitary
    DFT coefficient by coefficient [f] of [stretch t ~n]. For [Warp m]
    the result maps the coefficients of the original onto the first [n]
    coefficients of the length-[m·n] output. Raises [Invalid_argument]
    when a window is wider than [n] or a warp factor is < 1. Except for
    the warp, it is computed once per [(t, n)] and shared by every call
    from any domain: callers must never write to it. *)
val stretch : t -> n:int -> Simq_dsp.Flat.t

(** [feature_stretch t ~n ~k] is coefficients [1 .. k] of
    [stretch t ~n], boxed, for the k-index's lowering (Theorems 2/3);
    for [Warp m] only these are computed, the same doubles. *)
val feature_stretch : t -> n:int -> k:int -> Simq_dsp.Cpx.t array

(** [gain t] bounds the modulus of every coefficient of [t]'s stretch
    at any length: 1 for id and rev, the sum of the window's absolute
    weights for the moving averages (1 for every window with
    non-negative weights), [√m] for [Warp m]. *)
val gain : t -> float

(** [output_length t ~n] is the length of [apply_series t s] for an
    input of length [n]: [m·n] for [Warp m], [n] otherwise. A range
    query's series must have this length. *)
val output_length : t -> n:int -> int

val name : t -> string
val pp : Format.formatter -> t -> unit
