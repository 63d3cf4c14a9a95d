(** Descriptive statistics for series. *)

(** [mean s]. Raises [Invalid_argument] on the empty series. *)
val mean : Series.t -> float

(** [variance s] is the population variance (divide by n). *)
val variance : Series.t -> float

(** [variance_about s ~mean] is [variance s] given [mean = mean s],
    bit for bit, without computing the mean again. *)
val variance_about : Series.t -> mean:float -> float

(** [std s] is the population standard deviation. *)
val std : Series.t -> float

val minimum : Series.t -> float
val maximum : Series.t -> float

(** [correlation a b] is Pearson's correlation coefficient in [-1, 1];
    0 when either series is constant. *)
val correlation : Series.t -> Series.t -> float

(** [returns s] is the relative day-over-day change
    [(s_(t+1) - s_t) / s_t], length [length s - 1] — standard for price
    series. Raises [Invalid_argument] on zero values or series shorter
    than 2. *)
val returns : Series.t -> Series.t
