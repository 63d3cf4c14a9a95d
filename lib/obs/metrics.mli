(** Sharded metrics registry: counters and log-scale histograms.

    Hot-path updates go to a per-domain shard selected from
    [Domain.self ()], so concurrent domains never contend on a lock;
    readers merge the shards on demand ({!snapshot}, {!exposition}).
    Every update is guarded by one branch on a global flag — with
    metrics disabled ({!on} [= false]) the cost of an instrumented
    call site is a single atomic load and conditional jump, mirroring
    the [Simq_fault] guard design.

    Determinism: counter totals and histogram bucket counts are sums
    of non-negative integer increments, so merged totals are identical
    across any [SIMQ_DOMAINS]/[--jobs] setting as long as the
    instrumented work itself is deterministic (which the Lemma 1
    parallel tests enforce). Histogram [sum]s are floating-point and
    merge in shard order, so they are not bit-deterministic under
    parallel execution; the pool's task
    count depends on the domain count (it is a pure function of input
    sizes and domain count, so it repeats from run to run) and is
    excluded from the cross-domain determinism guarantee.

    Metric names follow Prometheus conventions
    ([simq_<family>_<what>_total] for counters); registration is
    idempotent by name and label set, so a library module can register
    its metrics at initialisation time and every family appears in the
    exposition even when zero.

    Validity: metric names must match [[a-zA-Z_:][a-zA-Z0-9_:]*] and
    label names [[a-zA-Z_][a-zA-Z0-9_]*] — registration raises
    [Invalid_argument] otherwise, so an unscrapeable exposition can
    never be produced. Label {e values} may hold any bytes; backslash,
    double quote and newline are escaped in the exposition (and in
    [# HELP] text) per the text-format grammar. *)

(** {1 Global enable flag} *)

(** [on ()] is the current state of the global metrics flag. It
    starts enabled iff the [SIMQ_METRICS] environment variable is set
    to anything other than ["", "0", "false", "off"]. *)
val on : unit -> bool

val set_enabled : bool -> unit

(** [with_enabled b f] runs [f ()] with the flag forced to [b],
    restoring the previous state afterwards (even on exceptions). *)
val with_enabled : bool -> (unit -> 'a) -> 'a

(** {1 Registries} *)

type registry

(** The registry used when [?registry] is omitted; all of simq's
    built-in instrumentation lives here. *)
val default : registry

(** [create_registry ()] is a fresh empty registry (used in tests). *)
val create_registry : unit -> registry

(** {1 Metric kinds} *)

type counter
type histogram

(** [counter name] registers (or retrieves, if [name] with the same
    [labels] is already registered) a monotonically increasing
    counter. [labels] (default none) distinguishes children of one
    family — e.g. [~labels:["decision", "reject"]] — and is
    canonicalised by label name. Raises [Invalid_argument] if [name]
    is registered as a different kind, if [name] or a label name is
    not a valid Prometheus identifier, on duplicate label names, or
    on the reserved label name ["le"]. *)
val counter :
  ?registry:registry ->
  ?help:string ->
  ?labels:(string * string) list ->
  string ->
  counter

(** [histogram name] registers a log-scale histogram: 64 buckets with
    upper bounds [2 ^ (i - 30)], covering roughly [1e-9 .. 8e9] —
    wide enough for seconds-scale timings and count-scale
    observations alike. Observations [<= 0] land in the first
    bucket. Validation as {!counter}. *)
val histogram :
  ?registry:registry ->
  ?help:string ->
  ?labels:(string * string) list ->
  string ->
  histogram

(** {1 Hot-path updates}

    All of these are no-ops (one branch) when [on () = false]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val observe : histogram -> float -> unit

(** {1 Reading}

    Readers merge all shards; they are safe to call concurrently with
    updates (values are atomic loads, so a snapshot taken mid-query
    is a consistent-enough monotonic view, exact once quiescent). *)

(** [counter_total c] is the merged total over all shards. *)
val counter_total : counter -> int

(** [histogram_count h] is the merged number of observations. *)
val histogram_count : histogram -> int

(** [histogram_sum h] is the merged sum of observed values. *)
val histogram_sum : histogram -> float

(** [histogram_buckets h] is the merged per-bucket (non-cumulative)
    counts, length 64. *)
val histogram_buckets : histogram -> int array

(** One merged metric value, for programmatic consumption. [labels]
    is the child's canonical (name-sorted) label set. *)
type sample =
  | Counter_sample of {
      name : string;
      labels : (string * string) list;
      help : string;
      total : int;
    }
  | Histogram_sample of {
      name : string;
      labels : (string * string) list;
      help : string;
      buckets : int array;  (** non-cumulative, length 64 *)
      sum : float;
      count : int;
    }

val sample_name : sample -> string
val sample_labels : sample -> (string * string) list

(** [snapshot ()] merges every metric of the registry, sorted by
    family name then label set. The shape is stable: the same
    registrations yield the same list of names in the same order. *)
val snapshot : ?registry:registry -> unit -> sample list

(** [bucket_upper i] is the upper bound of histogram bucket [i],
    i.e. [2. ** float (i - 30)]. *)
val bucket_upper : int -> float

(** [exposition ()] renders the registry in Prometheus text format:
    [# HELP]/[# TYPE] headers once per family, counters as
    [name{labels} total], histograms as cumulative
    [name_bucket{labels,le=...}] lines (empty leading buckets
    elided) plus [_sum]/[_count]. Label values are escaped per the
    format grammar. Metrics are sorted by family name then label set,
    so the output is stable for a given registry state. *)
val exposition : ?registry:registry -> unit -> string

(** [reset ()] zeroes every shard of every metric in the registry
    (registrations survive). Used by tests and by the experiment
    harness between runs. *)
val reset : ?registry:registry -> unit -> unit

(** {1 State persistence} *)

(** [save_state path] writes the full merged snapshot of the registry
    (counter totals, histogram buckets and sums, with labels and
    help text) as one self-describing JSON document — the mechanism
    behind the [--metrics-state] flag, which keeps the
    [simq_timer_seconds] histogram behind admission's deadline
    prediction alive across process restarts, so that prediction does
    not start cold. *)
val save_state : ?registry:registry -> string -> unit

(** [load_state path] reads a {!save_state} document back: unseen
    metrics are registered from their recorded kind/labels/help,
    counter totals and histogram contents are {e added} to the
    registry. Loading bypasses the {!on} gate — it
    restores state rather than instrumenting work — and is
    independent of the domain count. Raises [Failure] on malformed
    content (with the path in the message) and [Sys_error] on I/O
    errors. *)
val load_state : ?registry:registry -> string -> unit
