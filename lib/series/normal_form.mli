(** The normal form of Goldin and Kanellakis (Eq. 9): shift the mean to
    zero and scale by the inverse of the standard deviation,
    [s'_i = (s_i - mean s) / std s].

    The normal form abstracts from absolute price level and volatility;
    the paper stores [(mean, std)] as the first two index dimensions so
    that simple shifts and scales remain available on top of the polar
    representation. *)

type decomposition = {
  normalised : Series.t;  (** the normal form; mean 0, std 1 *)
  mean : float;
  std : float;
}

(** [decompose s] splits [s] into its normal form and the (mean, std)
    pair that reconstructs it. A constant series has [std = 0] and
    normalises to the zero series. *)
val decompose : Series.t -> decomposition

(** [standardise s ~mean ~std] is [(s_i - mean) / std] at every
    point, or the zero series when [std = 0]: the step {!decompose}
    takes once it has the moments. Given [s]'s own moments it is
    [(decompose s).normalised] bit for bit, which is how a normal form
    is recomputed from stored moments. *)
val standardise : Series.t -> mean:float -> std:float -> Series.t

(** [standardise_into s ~mean ~std out] writes [standardise s ~mean
    ~std] into [out], the same doubles without allocating. Raises
    [Invalid_argument] when [out]'s length differs from [s]'s. *)
val standardise_into :
  Series.t -> mean:float -> std:float -> Series.t -> unit

(** [normalise s] is [(decompose s).normalised]. *)
val normalise : Series.t -> Series.t

(** [is_normal ?eps s] checks mean ≈ 0 and std ≈ 1 (or std = 0 for the
    zero series). *)
val is_normal : ?eps:float -> Series.t -> bool
