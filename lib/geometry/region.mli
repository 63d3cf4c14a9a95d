(** Search regions: per-dimension ranges that are either ordinary linear
    intervals or {e circular} intervals of angles.

    The polar representation [S_pol] stores phase angles, and both
    transformed MBRs (whose angles have been shifted by [Angle a_i],
    Theorem 3) and ε-ball search rectangles (Figure 7) can stick out of
    the principal range (-π, π]. Treating those dimensions as circular
    keeps the overlap tests exact instead of conservatively widening to
    the full circle. *)

type range =
  | Linear of { lo : float; hi : float }
      (** ordinary interval; [lo <= hi] *)
  | Circular of { lo : float; width : float }
      (** the set of angles [lo + s (mod 2π)] for [0 <= s <= width],
          with [0 <= width <= 2π] *)

type t = range array

(** [linear ~lo ~hi] normalises bound order. *)
val linear : lo:float -> hi:float -> range

(** [circular ~lo ~hi] is the arc travelled counter-clockwise from [lo]
    to [hi]; when [hi - lo >= 2π] it is the full circle. *)
val circular : lo:float -> hi:float -> range

val full_circle : range

(** [contains region p] tests point membership; circular dimensions
    compare angles modulo 2π. Raises [Invalid_argument] on dimension
    mismatch. *)
val contains : t -> Point.t -> bool

(** [intersects_rect region r] tests whether the region can contain any
    point of [r]. For a circular dimension the rectangle's interval is a
    plain interval of reals that is matched against every unwinding of
    the arc, so shifted MBRs are handled exactly. *)
val intersects_rect : t -> Rect.t -> bool

(** [contains_value range v] is the one-dimensional membership test
    behind {!contains}; exposed so hot paths can test transformed
    coordinates without materialising points. *)
val contains_value : range -> float -> bool

(** [meets_interval range ~lo ~hi] is the one-dimensional overlap test
    behind {!intersects_rect} ([lo <= hi] expected). *)
val meets_interval : range -> lo:float -> hi:float -> bool

val pp : Format.formatter -> t -> unit
