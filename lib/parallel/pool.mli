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

(** {2 Chunking}

    When [?chunk] is omitted, an operation over [n] elements cuts
    chunks of [chunk_size pool n] elements: 8 chunks per domain, so the
    domains share the work evenly and one slow chunk holds a domain up
    for a small share of the job, but never fewer than 64 elements per
    chunk (below that, claiming and finishing a chunk outweighs its
    work), so smaller inputs are a single chunk and run inline in the
    caller. The size is a pure function of [n] and the pool's domain
    count: the same input is cut the same way on every run, and no job
    leaves state behind for the next. Chunk sizing only moves work
    between domains — per-chunk answers and counters merge in chunk
    order — so it never changes an answer. Each chunk of {!map_chunks},
    and of a {!map_array} that fans out, counts once in
    [simq_pool_tasks_total] while metrics are on. *)

(** [chunk_size pool n] is the chunk size for an [n]-element operation
    on [pool]: [max 64 (ceil (n / (8 * domains pool)))]. Exposed so
    callers that cut chunks themselves (the scans) follow the same
    rule. *)
val chunk_size : t -> int -> int

(** {2 Parallel operations}

    Every operation takes [?pool] (default {!default}) and a chunk
    size — the number of consecutive elements handed to a domain at a
    time. *)

(** [map_array ?pool ?chunk f arr] is [Array.map f arr], computed in
    parallel. Results are positioned exactly as [Array.map] would.
    [?chunk] defaults to {!chunk_size}; pass [~chunk:1] to make each
    element its own task. *)
val map_array : ?pool:t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

(** [map_chunks ?pool ~chunk ~n f] calls [f ~lo ~hi] over the disjoint
    ranges [\[lo, hi)] covering [0 .. n-1], [chunk] indices per range,
    in parallel, and returns the per-chunk results {e in chunk order}
    — the deterministic-merge building block behind the parallel scans
    and joins. [f] must only write state owned by its range. *)
val map_chunks : ?pool:t -> chunk:int -> n:int -> (lo:int -> hi:int -> 'b) -> 'b list
