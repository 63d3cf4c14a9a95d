(** A fixed-size domain pool for the embarrassingly parallel hot paths
    (dataset preparation, sequential scans, self-joins, query batches).

    Built on stdlib [Domain]/[Mutex]/[Condition] only — no external
    dependencies. A pool of [domains] means a parallelism degree of
    [domains]: the calling domain always participates in the work it
    submits, and [domains - 1] worker domains are spawned at creation.
    A pool of size 1 spawns nothing and runs every operation inline in
    the caller, which makes it {e bit-identical} to plain sequential
    code — this is the mode the test suite defaults to.

    {b Determinism.} All combining operations deliver per-chunk results
    to the caller {e in chunk order}, regardless of the order in which
    domains finished them. Parallel callers that merge per-chunk
    counters and answer lists in that order therefore produce output
    bit-identical to a sequential run — the property the Lemma 1
    equivalence tests rely on.

    {b Exceptions.} When chunk bodies raise, every chunk still runs to
    completion (or failure), and the exception raised by the {e
    lowest-indexed} failing chunk is re-raised in the caller — again
    matching what a sequential left-to-right run would have raised
    first. ({!map_array} evaluates element 0 in the caller before
    fanning out, so an exception there propagates immediately, exactly
    as a sequential run's would.) The pool remains usable afterwards.

    {b Nesting.} A task running on the pool may itself submit work to
    the same pool: the submitter drives its own sub-job to completion,
    so nested calls cannot deadlock (idle workers help when available). *)

type t

(** [create ~domains] is a pool of parallelism degree [domains]
    ([domains - 1] spawned worker domains). Raises [Invalid_argument]
    when [domains < 1]. *)
val create : domains:int -> t

(** [domains t] is the pool's parallelism degree (>= 1). *)
val domains : t -> int

(** [sequential] is the shared degree-1 pool: every operation runs
    inline in the caller. *)
val sequential : t

(** [shutdown t] terminates the worker domains and joins them. Further
    use of [t] degrades to sequential execution; [shutdown] is
    idempotent and a no-op on {!sequential}. *)
val shutdown : t -> unit

(** {2 The default pool}

    A global pool, created lazily on first use. Its size is, in order
    of precedence: the last {!set_default_domains} (the [--jobs] CLI
    flag), the [SIMQ_DOMAINS] environment variable, or
    [Domain.recommended_domain_count ()]. [SIMQ_DOMAINS=1] (or
    [--jobs 1]) makes every default-pool operation fully sequential.
    An unusable [SIMQ_DOMAINS] value (non-numeric, zero or negative)
    never raises: it is ignored with a one-time stderr warning and the
    next precedence level applies. *)

(** [default ()] is the global pool, created on first call. *)
val default : unit -> t

(** [default_domains ()] is the size {!default} has or would have. *)
val default_domains : unit -> int

(** [set_default_domains n] overrides the default-pool size (the
    [--jobs] flag). An already-created default pool of a different size
    is shut down and recreated lazily. Raises [Invalid_argument] when
    [n < 1]. *)
val set_default_domains : int -> unit

(** {2 Adaptive chunking}

    When [?chunk] is omitted, the pool picks the chunk size itself and
    adapts it to the workload: jobs start {e coarse} (2 chunks per
    domain, amortising scheduling overhead) and split finer — up to 16
    per domain — only when the measured per-domain busy times of a
    finished job are imbalanced (the [simq_pool_imbalance_ratio]
    gauge); near-perfect balance coarsens them again. A chunk never
    holds fewer than 64 elements (the minimum-work quantum below which
    scheduling overhead dominates), so smaller inputs collapse to a
    single chunk and run inline in the caller. Chunk sizing only moves
    work between domains — per-chunk answers and counters merge in
    chunk order — so adaptation never changes an answer. *)

(** [adaptive_chunk pool n] is the chunk size the controller currently
    picks for an [n]-element operation on [pool] — what every operation
    below uses when [?chunk] is omitted. Exposed so callers that cut
    chunks themselves (the scans) follow the same policy. *)
val adaptive_chunk : t -> int -> int

(** {2 Parallel operations}

    Every operation takes [?pool] (default {!default}) and an optional
    [?chunk] — the number of consecutive elements handed to a domain at
    a time. The default is {!adaptive_chunk}. *)

(** [map_array ?pool ?chunk f arr] is [Array.map f arr], computed in
    parallel. Results are positioned exactly as [Array.map] would. *)
val map_array : ?pool:t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

(** [chunked_iter ?pool ~chunk ~n f] calls [f ~lo ~hi] over the
    disjoint ranges [\[lo, hi)] covering [0 .. n-1], [chunk] indices per
    range, in parallel. [f] must only write state owned by its range. *)
val chunked_iter : ?pool:t -> chunk:int -> n:int -> (lo:int -> hi:int -> unit) -> unit

(** [map_chunks ?pool ~chunk ~n f] runs [f ~lo ~hi] over the same
    ranges as {!chunked_iter} and returns the per-chunk results {e in
    chunk order} — the deterministic-merge building block behind the
    parallel scans and joins. *)
val map_chunks : ?pool:t -> chunk:int -> n:int -> (lo:int -> hi:int -> 'b) -> 'b list

(** [reduce ?pool ?chunk ~map ~combine init arr] folds [combine] over
    [map x] for every element of [arr]:
    [combine (... (combine init (map arr.(0))) ...) (map arr.(n-1))]
    with the combines of one chunk evaluated left-to-right inside the
    chunk and chunks combined left-to-right — associative [combine]
    therefore yields the sequential answer, and even non-associative
    floating-point reductions are deterministic for a fixed [chunk]. *)
val reduce :
  ?pool:t -> ?chunk:int -> map:('a -> 'b) -> combine:('b -> 'b -> 'b) ->
  'b -> 'a array -> 'b
