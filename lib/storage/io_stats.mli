(** Mutable I/O counters. The library runs in memory, but experiments
    report page accesses the way the paper reports disk accesses, so
    every storage component counts the page traffic it would have
    caused. *)

type t

val create : unit -> t

val record_page_read : t -> unit
val record_cache_hit : t -> unit

val page_reads : t -> int
val cache_hits : t -> int

val reset : t -> unit
