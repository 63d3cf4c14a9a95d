(** Linear transformations over complex feature vectors (Section 3.1):
    [T = (a, b)] maps the complex vector [x] to [a * x + b]
    element-wise. DFT coefficients are complex, so this is the form in
    which time-series transformations (moving average, reversal, warp)
    reach the index.

    Safety (Definition 1) depends on the coordinate representation:
    - Theorem 2: [a] real, [b] complex — safe in the rectangular space
      [S_rect]; {!to_rectangular} performs the lowering to a real
      transformation on 2k dimensions.
    - Theorem 3: [a] complex, [b = 0] — safe in the polar space [S_pol];
      {!to_polar} lowers to magnitude-stretch + angle-shift.

    A complex [a] is {e not} safe in [S_rect]; the counterexample from
    the paper is exercised in the test suite. *)

type t = private {
  a : Simq_dsp.Cpx.t array;
  b : Simq_dsp.Cpx.t array;
}

exception Unsafe of string
(** Raised by the lowering functions when the transformation does not
    satisfy the corresponding theorem's hypothesis. *)

(** [create ~a ~b] requires equal non-zero lengths. *)
val create : a:Simq_dsp.Cpx.t array -> b:Simq_dsp.Cpx.t array -> t

(** [features t] is the number of complex features [k]. *)
val features : t -> int

(** [identity k] is [(1…1, 0…0)]. *)
val identity : int -> t

(** [reverse k] is the reversal [T_rev = (-1…-1, 0…0)] of Example 2.2. *)
val reverse : int -> t

(** [stretch a] is [(a, 0)] — the form of [T_mavg] and the time-warp
    transformation. *)
val stretch : Simq_dsp.Cpx.t array -> t

(** [translate b] is [(1…1, b)]. *)
val translate : Simq_dsp.Cpx.t array -> t

(** [apply t x] is [a * x + b]. Raises [Invalid_argument] on length
    mismatch. *)
val apply : t -> Simq_dsp.Cpx.t array -> Simq_dsp.Cpx.t array

(** [compose outer inner] applies [inner] first. *)
val compose : t -> t -> t

(** [to_rectangular t] lowers [t] to the real transformation [(c, d)] on
    [S_rect] given by Theorem 2: [c_2i = c_2i+1 = a_i],
    [d_2i = Re b_i], [d_2i+1 = Im b_i] (0-indexed). Raises {!Unsafe}
    when some [a_i] is not real. *)
val to_rectangular : t -> Linear_transform.t

(** [to_polar t] lowers [t] to the real transformation on [S_pol] given
    by Theorem 3: magnitudes stretch by [|a_i|], angles shift by
    [Angle a_i]. Raises {!Unsafe} when [b ≠ 0]. *)
val to_polar : t -> Linear_transform.t

val pp : Format.formatter -> t -> unit
