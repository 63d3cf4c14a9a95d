(** Synthetic series generators.

    [random_walk] is the paper's synthetic workload (Section 5):
    [x_0] drawn from [20, 99], then [x_t = x_(t-1) + z_t] with each
    [z_t] drawn from [-4, 4]. (The paper calls [x_0] “a normally
    distributed random number in the range [20, 99]” — a bounded range
    contradicts normality, so we draw it uniformly, as common for this
    benchmark lineage.)

    All generators are deterministic given the [Random.State.t]. *)

(** [random_walk state n] is one length-[n] synthetic walk. *)
val random_walk : Random.State.t -> int -> Series.t

(** [random_walks ~seed ~count ~n] is a reproducible batch. *)
val random_walks : seed:int -> count:int -> n:int -> Series.t array

(** [sine state ~n ~period ~amplitude ~noise] is a noisy sinusoid with a
    random phase; [noise] is the half-width of the uniform perturbation. *)
val sine :
  Random.State.t -> n:int -> period:float -> amplitude:float -> noise:float ->
  Series.t

