(** The feature map of Section 5: a series becomes the index point

    {v [ c(X_1); c(X_2); …; c(X_k); mean; std ] v}

    where [X_1 … X_k] are DFT coefficients 1..k of the {e normal form}
    (coefficient 0 is identically zero and is thrown away) and [c]
    encodes each complex coefficient in two real dimensions, polar or
    rectangular. The paper's index is [k = 2] polar: six dimensions (it
    lists mean/std first; we store them last so the bulk loader tiles
    along the discriminating DFT dimensions — similarity queries leave
    mean and std unconstrained). *)

type config = {
  k : int;  (** number of DFT coefficients kept (from coefficient 1) *)
  representation : Simq_geometry.Coords.representation;
}

val default : config

(** [validate config ~n] checks [1 <= k < n]. *)
val validate : config -> n:int -> unit

(** [dims config] is [2 + 2k]. *)
val dims : config -> int

(** [coefficients config dataset entry] is coefficients 1..k of the
    entry's normal-form spectrum, read from [dataset]'s buffer — the
    complex features. *)
val coefficients : config -> Dataset.t -> Dataset.entry -> Simq_dsp.Cpx.t array

(** [point config dataset entry] is the full index key. *)
val point : config -> Dataset.t -> Dataset.entry -> Simq_geometry.Point.t
