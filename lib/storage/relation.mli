(** Relations of time sequences. The paper treats relations as unary —
    sets of sequences — “in practice of course they may have other
    attributes”; tuples here carry an id and a symbolic name (ticker,
    sensor, …) next to the data.

    Tuples are laid out on fixed-size logical pages in insertion order;
    scans and point lookups account their page traffic through an LRU
    buffer pool, so sequential-scan baselines report page reads the way
    the paper reports disk accesses. *)

type tuple = {
  id : int;           (** dense, assigned at insertion, starting from 0 *)
  name : string;
  data : Simq_series.Series.t;
}

type t

(** [create ~name ()] is an empty relation. [page_size] is the logical
    page size in bytes (default 4096); [pool_pages] the buffer-pool
    capacity in pages (default 64). *)
val create : ?page_size:int -> ?pool_pages:int -> name:string -> unit -> t

val name : t -> string
val cardinality : t -> int

(** [insert t ~name data] validates [data], appends it, and returns the
    new tuple. *)
val insert : t -> name:string -> Simq_series.Series.t -> tuple

(** [of_series ~name batch] bulk-creates a relation with generated tuple
    names. *)
val of_series : ?page_size:int -> name:string -> Simq_series.Series.t array -> t

(** [get ?budget t id] fetches one tuple through the buffer pool,
    guarding every page touch with [budget] when given — its charges
    and its fault plan (see {!Buffer_pool.touch}). Raises [Not_found]
    for unknown ids. *)
val get : ?budget:Simq_fault.Budget.state -> t -> int -> tuple

(** [fold t ~init ~f] scans all tuples in storage order, touching each
    data page once, unguarded. *)
val fold : t -> init:'acc -> f:('acc -> tuple -> 'acc) -> 'acc

val iter : t -> f:(tuple -> unit) -> unit
val to_array : t -> tuple array

(** [pages t] is the number of logical pages the relation occupies. *)
val pages : t -> int

(** [stats t] exposes the I/O counters ({!Io_stats.reset} to clear
    between measurements). *)
val stats : t -> Io_stats.t

(** [save t path] / [load path] persist and restore a relation
    (marshalled; same OCaml version required on both ends). *)
val save : t -> string -> unit

val load : ?page_size:int -> ?pool_pages:int -> string -> t
