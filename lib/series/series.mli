(** Time series: finite sequences of real values, one value per time
    point (stock closes, sensor readings, …). *)

type t = float array

(** [of_list vs] builds a series from a list of values. *)
val of_list : float list -> t

(** [length s] is the number of time points. *)
val length : t -> int

(** [validate s] raises [Invalid_argument] when [s] is empty or contains
    non-finite values, and returns [s] otherwise. Constructors of
    relations and indexes call this at the boundary so the numeric code
    can assume well-formed inputs. *)
val validate : t -> t

(** [equal ?eps a b] is element-wise equality within [eps]
    (default [1e-9]). *)
val equal : ?eps:float -> t -> t -> bool

(** [map2 f a b] applies [f] element-wise. Raises [Invalid_argument] on
    length mismatch. *)
val map2 : (float -> float -> float) -> t -> t -> t

(** [add a b], [sub a b]: element-wise sum / difference. *)
val add : t -> t -> t

val sub : t -> t -> t

(** [scale c s] multiplies every value by [c]. *)
val scale : float -> t -> t

(** [shift c s] adds [c] to every value. *)
val shift : float -> t -> t

(** [reverse_sign s] is the reversal transformation of Example 2.2:
    every value multiplied by -1 (note: not a time reversal). *)
val reverse_sign : t -> t

(** [subsequence s ~pos ~len] extracts a contiguous subsequence. *)
val subsequence : t -> pos:int -> len:int -> t

(** [sample_every k s] keeps every [k]-th point, modelling a series
    sampled at a lower frequency (Example 1.2). *)
val sample_every : int -> t -> t

(** [dft s] is the series' Discrete Fourier Transform under the unitary
    convention. *)
val dft : t -> Simq_dsp.Cpx.t array

(** [idft coeffs] inverts {!dft}, keeping only the real parts. *)
val idft : Simq_dsp.Cpx.t array -> t

(** [idft_flat x] is {!idft} of the flat vector [x], which it overwrites
    (the inverse transform runs in place). *)
val idft_flat : Simq_dsp.Flat.t -> t

val pp : Format.formatter -> t -> unit
