(** Deterministic, seeded transient-fault injection.

    An injector is a fault plan carried by a query budget
    ([Budget.create ~faults]); every attempt run under that budget
    consults it at each guarded access ([Budget.node_access],
    [Budget.page_read]). When it decides an access faults it raises
    {!Transient_fault}, modelling a transient I/O error: the failed
    access is not recorded, and a retry re-issues it as a {e new}
    access (with a new ordinal). A query run without a budget state
    cannot be faulted.

    Fault decisions are reproducible: the same [seed] and the same
    access sequence produce the same fault sequence. Internal state is
    mutex-protected, so one injector may serve several domains, but
    reproducibility then additionally requires a deterministic access
    order: page accounting of a scan and a single traversal run on the
    submitting domain, while the per-shard tasks of a sharded query
    run on pool domains and interleave their ordinals — their fault
    sequence is reproducible only on the sequential pool. *)

(** Where a fault can be injected. *)
type site =
  | Page_read  (** a {!Simq_storage.Buffer_pool.touch} page access *)
  | Node_access  (** an R*-tree node visit during a read traversal *)

val site_name : site -> string

(** Raised by {!check} at a faulting access. [ordinal] is the 1-based
    access number at that site since the injector was created. *)
exception Transient_fault of { site : site; ordinal : int }

(** Per-site fault plan: every access faults independently with
    [probability], and accesses whose ordinals appear in [schedule]
    fault unconditionally ("fail the Nth access"). *)
type spec = { probability : float; schedule : int list }

(** [transient ?probability ?schedule ()] builds a {!spec}. Defaults
    to no faults. Raises [Invalid_argument] if [probability] is outside
    [\[0, 1\]] or a schedule ordinal is [< 1]. *)
val transient : ?probability:float -> ?schedule:int list -> unit -> spec

type t

(** [create ?page_reads ?node_accesses ~seed ()] builds an injector
    with a per-site plan (omitted sites never fault). Seed fault
    streams for benchmarks from [Bench_util.derived_seed] so runs are
    reproducible. *)
val create : ?page_reads:spec -> ?node_accesses:spec -> seed:int -> unit -> t

(** [check t site] records one access at [site] and raises
    {!Transient_fault} if that access faults. Query code reaches it
    through the [Budget] guards only. *)
val check : t -> site -> unit

(** [accesses t site] is the number of {!check} calls seen at [site]
    (including faulted ones). *)
val accesses : t -> site -> int

(** [faults t site] is the number of faults injected at [site]. *)
val faults : t -> site -> int
