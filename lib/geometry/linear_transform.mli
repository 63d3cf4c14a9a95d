(** Real linear transformations [(a, b)] of Section 3: point [x] maps to
    [a * x + b] (element-wise stretch plus translation). By Theorem 1
    every such transformation is {e safe}: it maps rectangles to
    rectangles, interior points to interior points, and exterior points
    to exterior points — negative stretches merely flip the bounds, which
    {!apply_rect} renormalises. *)

type t = private {
  a : float array;  (** per-dimension stretch *)
  b : float array;  (** per-dimension translation *)
}

(** [create ~a ~b] validates finiteness and equal dimensions. *)
val create : a:float array -> b:float array -> t

(** [identity d] is [(1…1, 0…0)] — the transformation [T_i] used by the
    paper's Figures 8 and 9 to isolate the cost of transformed search. *)
val identity : int -> t

(** [translation b] is [(1…1, b)]. *)
val translation : float array -> t

val dims : t -> int
val is_identity : ?eps:float -> t -> bool

(** [apply t p] is [a * p + b]. *)
val apply : t -> Point.t -> Point.t

(** [apply_rect t r] is the image of [r]; a rectangle by safety. *)
val apply_rect : t -> Rect.t -> Rect.t

(** [compose outer inner] applies [inner] first:
    [apply (compose f g) p = apply f (apply g p)]. *)
val compose : t -> t -> t

(** [inverse t] is [Some t'] with [t' ∘ t = id] when every stretch is
    non-zero. *)
val inverse : t -> t option

val pp : Format.formatter -> t -> unit
