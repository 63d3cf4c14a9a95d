(** Per-query resource budgets with cooperative cancellation, and the
    per-query fault plan.

    A budget ({!t}) is an immutable set of limits, optionally carrying
    an {!Injector.t} — the fault plan of every query run under it. Each
    query attempt gets a fresh mutable {!state} from it
    ([Retry.with_retries], the one place attempts start); every guarded
    access in [Rstar] traversal, the [Buffer_pool], the NN traversal
    of [Kindex] and the comparison loops of the scan, join and
    postfilter paths is one call to a guard
    ({!node_access}, {!page_read}, {!comparisons}) with that state.
    A guard runs the attempt's fault plan for its site (which may raise
    {!Injector.Transient_fault}), then the cancellation and deadline
    check, then the charge. The first crossing of any limit latches a
    typed {!Error.t} into the state and raises {!Exceeded}; every other
    domain observes the latch at its next guard, so cancellation
    propagates cooperatively across all domains of
    [Simq_parallel.Pool] while the pool's lowest-index exception rule
    still picks one deterministic error.

    Accounting notes: page reads count {e logical} buffer-pool touches
    (hits and misses alike) so budget outcomes do not depend on what an
    earlier query left resident; comparisons count candidate distance
    evaluations; node accesses count R*-tree node visits. Under
    parallel execution the latched [spent] payload may overshoot the
    limit by up to one in-flight charge per domain — outcomes (and
    {!Error.kind}) stay deterministic because total work per query is
    fixed. *)

type t

(** [create ()] with no arguments is {!unlimited}. [deadline_s] is a
    per-query wall-clock deadline in seconds; the [max_*] limits are
    counts. [faults] is the fault plan every attempt run under the
    budget consults at its guarded accesses (none by default). Raises
    [Invalid_argument] on negative limits. A limit of 0 fails on the
    first charge, which is useful for forcing degradation in tests. *)
val create :
  ?deadline_s:float ->
  ?max_page_reads:int ->
  ?max_comparisons:int ->
  ?max_node_accesses:int ->
  ?faults:Injector.t ->
  unit ->
  t

(** No limits and no faults: checked query paths skip the guards
    entirely. *)
val unlimited : t

(** [is_unlimited t] holds when [t] sets no limit — whatever its fault
    plan. Admission control looks at limits only. *)
val is_unlimited : t -> bool

(** [limit t r] is the count limit for resource [r], [None] when [r]
    is uncapped (and always for [Wall_clock] — see {!deadline}). Used
    by admission control to compare estimated costs against the
    budget before execution. *)
val limit : t -> Error.resource -> int option

(** [deadline t] is the wall-clock deadline in seconds, if any. *)
val deadline : t -> float option

(** Mutable accounting for one query attempt, carrying its budget's
    fault plan. Retried attempts each get a fresh state, so limits are
    per-attempt; the fault plan is shared, so a retried access is a new
    access with a new ordinal. *)
type state

(** Raised inside query loops when a limit is crossed or the state was
    cancelled by another domain. Checked entry points catch it and
    return the carried error as [Error _]. *)
exception Exceeded of Error.t

(** [state_opt t] is [None] when [t] has neither a limit nor a fault
    plan (the guards then cost one match), else a fresh state stamping
    the deadline clock. [Retry.with_retries] calls it per attempt. *)
val state_opt : t -> state option

(** {2 Guards} One call per guarded access; [None] does nothing. *)

(** One R*-tree node visit (fault site [Node_access]). *)
val node_access : state option -> unit

(** One logical page read (fault site [Page_read]). *)
val page_read : state option -> unit

(** [comparisons s n] charges [n >= 0] distance comparisons (no fault
    site; [n = 0] only checks). Raises [Invalid_argument] on [n < 0]. *)
val comparisons : state option -> int -> unit

(** [spent s r] is the consumption recorded so far for resource [r]
    ([0] for [Wall_clock]). Charges against a resource [s] does not
    limit are skipped, not recorded, so [spent] reports [0] for
    uncapped resources. *)
val spent : state -> Error.resource -> int
