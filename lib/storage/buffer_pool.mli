(** An LRU buffer pool over page identifiers. Data lives in memory; the
    pool tracks which pages {e would} be resident, so cache misses equal
    the disk reads a paged implementation would issue. *)

type t

(** [create ~capacity ~stats] keeps at most [capacity] pages resident
    and records hits/misses in [stats]. Raises [Invalid_argument] when
    [capacity <= 0]. *)
val create : capacity:int -> stats:Io_stats.t -> t

(** [touch ?budget pool page] accesses [page]: [`Hit] when resident,
    [`Miss] (counted as a page read, least-recently-used page evicted
    if necessary) otherwise. With [?budget] (the calling query
    attempt's state) the touch first passes {!Simq_fault.Budget.page_read}
    — one logical page read, hits and misses alike, so budget outcomes
    do not depend on residency left behind by earlier queries — which
    may raise {!Simq_fault.Injector.Transient_fault} or
    {!Simq_fault.Budget.Exceeded} {e before} any counter is updated.
    Without it the touch cannot fail. *)
val touch : ?budget:Simq_fault.Budget.state -> t -> int -> [ `Hit | `Miss ]

(** [resident pool] is the number of currently resident pages. *)
val resident : t -> int

(** [flush pool] empties the pool (counters keep their values). *)
val flush : t -> unit
