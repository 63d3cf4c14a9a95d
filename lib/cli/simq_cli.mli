(** The command-line harness shared by [bin/simq] and [bench/main]:
    error-to-exit-code mapping, the flags both parse, exception-safe
    observability dumps, and the live metrics endpoint lifecycle. Kept
    in a library so the failure paths are unit testable — every
    non-zero exit of the binary must still write the requested
    [--metrics]/[--trace] files, and that guarantee lives here. *)

(** User-facing failures: one line on stderr, a distinct exit code,
    never a backtrace. *)
type error =
  | Usage of string  (** bad arguments or malformed query text *)
  | File of string  (** unreadable, corrupt or unwritable files *)
  | Csv_error of string  (** malformed CSV on import/export *)
  | Fault of Simq_fault.Error.t
      (** typed budget/fault errors from a checked query *)

(** [1] usage, [2] file, [3] CSV, [4] budget or fault, [5] refused by
    admission control ([Simq_fault.Error.Rejected]). *)
val exit_code : error -> int

(** [outcome_of_error e] is the outcome string and exit code that
    query-log lines and batch/serve response lines record for a failed
    query: the typed fault kind ({!Simq_fault.Error.kind}, e.g.
    ["budget_exceeded:comparisons"] with exit 4, or
    ["rejected:page_reads"] with exit 5) for [Fault], and ["usage"]/1,
    ["file"]/2, ["csv"]/3 otherwise. A success is ["ok"]/0. *)
val outcome_of_error : error -> string * int

val message : error -> string

(** [handle r] is [0] for [Ok ()]; otherwise prints
    [simq: error: <message>] to stderr and returns {!exit_code}. *)
val handle : (unit, error) result -> int

(** A [Cmdliner] converter for strictly positive integers: [--jobs 0]
    or a negative count is a parse-time usage error, before any code
    (in particular [Simq_parallel.Pool.create]) runs. *)
val positive_int : int Cmdliner.Arg.conv

(** A [Cmdliner] converter for TCP port numbers, [0] to [65535]: an
    out-of-range port is a parse-time usage error rather than a bind
    to the port it wraps around to. *)
val port : int Cmdliner.Arg.conv

(** A [Cmdliner] converter for finite floats: ["nan"], ["inf"] and
    overflowing literals are parse-time usage errors, so no non-finite
    value can reach a distance or deadline comparison through the
    CLI. *)
val finite_float : float Cmdliner.Arg.conv

(** {2 Flags shared by [simq] and the bench binary}

    The [Cmdliner] terms both binaries parse their parallelism and
    observability options with, so the two surfaces accept the same
    spellings and report the same usage errors. *)

(** [-j N] / [--jobs N]: the default pool's domain count
    ({!positive_int}); [None] leaves [SIMQ_DOMAINS] or the core count
    in charge. *)
val jobs_arg : int option Cmdliner.Term.t

(** [--metrics[=FILE]]: dump the exposition when the command finishes,
    to [FILE] or (bare flag, ["-"]) to stdout. *)
val metrics_arg : string option Cmdliner.Term.t

(** [--trace FILE]: write the Chrome trace-event JSON there. *)
val trace_arg : string option Cmdliner.Term.t

(** [--metrics-port PORT]: serve the live exposition for the duration
    of the command (see {!resolve_metrics_port} for the environment
    default). *)
val metrics_port_arg : int option Cmdliner.Term.t

(** [--metrics-state FILE]: load the registry from [FILE] before the
    command and save it afterwards (see {!with_obs}). *)
val metrics_state_arg : string option Cmdliner.Term.t

(** [resolve_metrics_port explicit] is [explicit] when given, otherwise
    the [SIMQ_METRICS_PORT] environment variable. An unparsable
    environment value warns once on stderr and counts as unset,
    mirroring the [SIMQ_DOMAINS] handling in [Simq_parallel.Pool]. *)
val resolve_metrics_port : int option -> int option

(** [dump_observability ~metrics ~trace] writes the metric exposition
    ([Some file], with ["-"] meaning stdout) and the Chrome trace JSON.
    Unwritable destinations are reported as [File] errors. *)
val dump_observability :
  metrics:string option -> trace:string option -> (unit, error) result

(** [with_obs ?metrics_port ~metrics ~trace f] enables the requested
    observability subsystems, runs [f], and dumps on the way out —
    {e on every path}: after [Ok], after [Error] (the dump describes
    the failing run), and before re-raising when [f] raises. When
    [metrics_port] is given, metric collection is forced on and the
    exposition is served on [127.0.0.1:port] ({!Simq_obs.Serve}) for
    the duration of [f]; port [0] picks an ephemeral port, printed on
    stderr. A port that cannot be bound is a [Usage] error and [f] is
    not run. The endpoint also answers [GET /history] with the
    windowed-rate document of a {!Simq_obs.History} sampler running
    for the duration of [f] ([history_interval_s] overrides its
    period, default 1 s) — the sampler only snapshots the registry,
    so merged totals are unchanged by its presence.

    The same every-exit-path guarantee extends to the per-query
    forensics: [profile] is a {!Simq_obs.Profile} plus its destination
    (["-"] for stdout; a [.json] suffix selects the JSON export over
    the text tree), [qlog] an open {!Simq_obs.Qlog} closed (hence
    flushed) on the way out — forcing metric collection on, so the
    logged counter deltas are live — and [metrics_state] a
    {!Simq_obs.Metrics.save_state} file — loaded before [f] when it
    exists (forcing metric collection on, like [metrics_port]) and
    rewritten afterwards, so the registry's counters, gauges and
    histograms survive restarts (among them the [simq_timer_seconds]
    histogram behind admission's deadline prediction; no executor
    writes the planner's selectivity calibration gauges, so a saved
    state carries only what an older process left in them). A state
    file that exists but does not parse is a [File] error and [f] is
    not run. *)
val with_obs :
  ?metrics_port:int ->
  ?history_interval_s:float ->
  ?metrics_state:string ->
  ?profile:Simq_obs.Profile.t * string ->
  ?qlog:Simq_obs.Qlog.t ->
  metrics:string option ->
  trace:string option ->
  (unit -> (unit, error) result) ->
  (unit, error) result

(** [scrape ?timeout_ms ~host ~port ()] resolves the port
    ({!resolve_metrics_port}), fetches the live exposition from a
    running {!Simq_obs.Serve} endpoint and prints it to stdout. A
    missing port is a [Usage] error; connection failures (dead or
    non-listening port, peer gone mid-conversation) and malformed
    responses are one-line [File] errors — never an uncaught
    [Unix_error]. With [timeout_ms] (the [--timeout-ms] flag) the
    connect and every read give up after that long, and a hung peer
    becomes the same one-line exit-2 [File] error, naming the
    timeout. *)
val scrape :
  ?timeout_ms:int -> host:string -> port:int option -> unit -> (unit, error) result
