(** Distances between series of equal length. All raise
    [Invalid_argument] on length mismatch. *)

(** [euclidean a b] is the L2 distance — the paper's [D] (Eq. 8). *)
val euclidean : Series.t -> Series.t -> float

(** [euclidean_early_abandon ~threshold a b] is [Some (euclidean a b)]
    when it does not exceed [threshold], and [None] as soon as the
    partial sum proves it does — the optimised sequential scan of
    Section 5. A partial sum past [threshold²] whose root is not above
    [threshold] (the rounding case) is carried on, so the answer is
    [euclidean a b <= threshold] exactly. *)
val euclidean_early_abandon :
  threshold:float -> Series.t -> Series.t -> float option

(** [within ~threshold a b] decides [euclidean a b <= threshold] using
    early abandoning. *)
val within : threshold:float -> Series.t -> Series.t -> bool
