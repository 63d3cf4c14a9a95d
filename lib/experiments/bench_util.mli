(** Shared measurement helpers for the experiment harness. *)

(** [time_per_query ~repeats f] runs [f] [repeats] times and returns the
    mean seconds per run (after one untimed warmup). *)
val time_per_query : repeats:int -> (unit -> unit) -> float

(** [mean xs] of a non-empty list. *)
val mean : float list -> float

(** [fmt_time s] renders seconds compactly ([420us], [1.3ms], …). *)
val fmt_time : float -> string

(** [queries_for ~seed ~count batch] draws [count] query series by
    perturbing members of [batch] (±1.0 noise). *)
val queries_for :
  seed:int -> count:int -> Simq_series.Series.t array ->
  Simq_series.Series.t list

(** {2 Seeding}

    Every synthetic dataset, query workload and micro-benchmark input in
    the bench harness derives from one seed, so a whole run is
    reproducible from a single number. *)

(** The root seed of the benchmark harness (the paper's publication
    year). Changing it re-draws every synthetic input at once. *)
val bench_seed : int

(** [derived_seed offset] is a deterministic per-generator stream seed
    derived from {!bench_seed}; distinct offsets give independent
    streams. *)
val derived_seed : int -> int
