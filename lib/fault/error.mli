(** Typed query failures. Every resilient entry point of the system
    ([Seqscan.range_checked], [Kindex.range_checked],
    [Join.scan_checked], [Planner.range_resilient]) returns
    [(value, Error.t) result]: a query either produces its exact answer
    or one of these structured errors — never a raw exception. *)

(** The resources a {!Budget} can limit. [In_flight] is not a budget
    resource: it names a server-wide concurrency cap, so a load-shed
    rejection from [simq serve] carries the same typed shape
    ([Rejected]) as a cost-model rejection. *)
type resource =
  | Wall_clock
  | Page_reads
  | Comparisons
  | Node_accesses
  | In_flight

type t =
  | Timeout of { elapsed_s : float; deadline_s : float }
      (** the per-query wall-clock deadline expired *)
  | Io_failed of { site : string; attempts : int }
      (** a transient I/O fault persisted through every retry;
          [site] names the injection point ([page_read],
          [node_access]) *)
  | Budget_exceeded of { resource : resource; spent : int; limit : int }
      (** a resource limit was crossed; [spent] is the consumption
          observed when the limit was detected (>= [limit], and may
          slightly exceed it under parallel execution) *)
  | Rejected of { resource : resource; estimated : int; limit : int }
      (** admission control predicted the query cannot finish within
          its budget and refused it {e before} execution — no page was
          read and no comparison ran; [estimated] is the cost model's
          prediction for [resource] (milliseconds for [Wall_clock]) *)

val resource_name : resource -> string

(** [kind e] is a stable, payload-free tag ("timeout",
    "budget_exceeded:comparisons", …). Two runs of the same seeded
    workload produce errors of equal [kind] even when nondeterministic
    payloads (elapsed time, exact spent under parallelism) differ. *)
val kind : t -> string

(** [same_kind a b] compares errors by {!kind} only. *)
val same_kind : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
