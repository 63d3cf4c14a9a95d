(** Axis-aligned hyperrectangles — the minimum bounding rectangles (MBRs)
    of R-tree entries — with the geometric measures used by the R*-tree
    heuristics ([BKSS90]) and the nearest-neighbour metrics of [RKV95]. *)

type t = private {
  lo : float array;
  hi : float array;  (** [lo.(i) <= hi.(i)] for every dimension [i]. *)
}

(** [create ~lo ~hi] builds a rectangle, swapping bounds per dimension if
    given in the wrong order, so the invariant always holds. Raises
    [Invalid_argument] on dimension mismatch, empty dimensions or
    non-finite bounds. *)
val create : lo:float array -> hi:float array -> t

(** [of_point p] is the degenerate rectangle containing exactly [p]. *)
val of_point : Point.t -> t

(** [of_points ps] is the MBR of a non-empty list of points. *)
val of_points : Point.t list -> t

val dims : t -> int
val contains_point : t -> Point.t -> bool

val contains_rect : t -> t -> bool
val intersects : t -> t -> bool

(** [union a b] is the MBR of both rectangles. *)
val union : t -> t -> t

(** [union_many rs] folds {!union} over a non-empty list. *)
val union_many : t list -> t

(** [area r] is the volume (product of extents). *)
val area : t -> float

(** [margin r] is the half-perimeter (sum of extents) used by the R*
    split heuristic. *)
val margin : t -> float

(** [overlap_area a b] is the volume of the intersection (0 when
    disjoint). *)
val overlap_area : t -> t -> float

(** [enlargement r ~extra] is [area (union r extra) - area r], the
    ChooseSubtree criterion. *)
val enlargement : t -> extra:t -> float

val center : t -> Point.t

(** [mindist p r] is the minimum Euclidean distance from [p] to any point
    of [r]; 0 when [p] is inside — the optimistic NN bound of [RKV95]. *)
val mindist : Point.t -> t -> float

(** [minmaxdist p r] is the [RKV95] pessimistic bound: the smallest
    distance within which at least one data point of [r] must lie
    (assuming every face of an MBR touches data). *)
val minmaxdist : Point.t -> t -> float

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
