(** Signal energy, Parseval's relation, and coefficient-prefix helpers
    (Eqs. 3, 7, 8 and the k-index cut-off of Section 4). *)

(** [energy x] is [Σ |x_t|²] (Eq. 3). *)
val energy : Cpx.t array -> float

(** [energy_real x] is the energy of a real signal. *)
val energy_real : float array -> float

(** [distance x y] is the Euclidean distance between two complex vectors,
    [sqrt (Σ |x_f - y_f|²)]. By Parseval it is the same in the time and
    frequency domains (Eq. 8). Raises [Invalid_argument] on length
    mismatch. *)
val distance : Cpx.t array -> Cpx.t array -> float

(** [prefix_distance k x y] is the distance restricted to the first [k]
    coefficients — the lower bound of Lemma 1; never exceeds
    [distance x y]. *)
val prefix_distance : int -> Cpx.t array -> Cpx.t array -> float

(** [distance_early_abandon ~threshold x y] computes [distance x y] but
    returns [None] as soon as the running sum proves the distance exceeds
    [threshold] — the optimised sequential scan of Section 5. Scanning in
    the frequency domain makes this effective because large coefficients
    come first. *)
val distance_early_abandon :
  threshold:float -> Cpx.t array -> Cpx.t array -> float option

(** [concentration k x] is the fraction of the energy of [x] carried by
    its first [k] DFT coefficients, in [0, 1]. The DFT's usefulness as an
    index key rests on this being close to 1 for small [k]. *)
val concentration : int -> float array -> float

val magnitudes : Cpx.t array -> float array
val phases : Cpx.t array -> float array
