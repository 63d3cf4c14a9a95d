(** The structured query log: one self-describing JSON line per query.

    Where {!Profile} is forensics for one query, the query log is the
    fleet view: each executed query appends one line carrying the
    query spec and its digest, the admission decision and the path
    actually taken, the per-family counter {e deltas} between the
    registry snapshots bracketing the run, the duration, the outcome
    and its mapped exit code, and the domain count. Lines are JSON
    objects tagged ["event":"simq.qlog"], so any JSON-lines tool — or
    [simq qlog-top] — can aggregate a log offline.

    Sampling is deterministic: a 1-in-N filter keyed off the query
    sequence number (queries [0, N, 2N, …] are kept), plus an
    always-log threshold for slow queries, so reruns of a fixed
    workload produce the same set of logged sequence numbers (timing
    can only {e add} slow-query lines).

    A query log never changes an answer: it only reads registry
    snapshots. Lines are written by the query entry points ([simq
    query], [simq batch], [simq serve]), each projecting the engine's
    one request record ([Simq_serve.Engine.qlog_entry]); no library
    below [lib/serve] logs queries. *)

type t
(** An open query log: destination channel, sampling policy, sequence
    counter. Writes are serialised by an internal mutex. *)

(** Scatter-gather accounting of a sharded query ([Simq_shard]): how
    many shards executed, how many the catalogue pruned, how many
    degraded to their per-shard scan. *)
type shard_counts = { fanout : int; pruned : int; degraded : int }

type entry = {
  spec : string;  (** human-readable query text, e.g. ["range mavg7 eps=0.4"] *)
  digest : string;  (** stable hex digest of the query identity *)
  decision : string option;  (** admission decision, when admission ran *)
  path : string option;  (** access path actually executed *)
  deltas : (string * int) list;
      (** per-family counter deltas over the run; see {!counter_deltas} *)
  duration_s : float;
  outcome : string;  (** ["ok"] or the typed error kind *)
  exit_code : int;  (** the {!Simq_cli}-mapped exit code for the outcome *)
  domains : int;  (** domain count the query ran under *)
  shards : shard_counts option;
      (** sharded execution only; rendered as a nested ["shards"]
          object ([null] on unsharded lines) *)
  trace_id : int option;
      (** the request id correlating this line with the query's
          profile root and Chrome trace spans (see
          {!Trace.new_request_id}); rendered as ["trace_id"] ([null]
          when none) *)
}

val create : ?sample:int -> ?slow_ms:float -> ?max_bytes:int -> string -> t
(** [create ?sample ?slow_ms ?max_bytes path] opens [path] for
    appending. [sample] is the 1-in-N keep rate (default [1] — keep
    everything; [Invalid_argument] if [< 1]); [slow_ms] always logs
    entries whose duration reaches it regardless of sampling (default:
    off). [max_bytes] (default: unbounded; [Invalid_argument] if
    [< 1]) rotates by size: after a write that takes the file to
    [max_bytes] or beyond, it is renamed to [path.1] — replacing any
    previous rotation, so at most two files ever exist. The fresh
    [path] is opened lazily by the next written line, so a log whose
    final line triggered rotation leaves only [path.1] behind (a state
    {!rotated_chain} accepts). Sequence numbers keep counting across
    rotations, so sampling stays a pure function of the query sequence
    number. Raises [Sys_error] if the file cannot be opened. *)

val log : t -> entry -> unit
(** Assigns the next sequence number, applies the sampling policy and
    appends (and flushes) the rendered line when kept. *)

val close : t -> unit
(** Flushes and closes the destination. Idempotent; [log] after
    [close] is a no-op. *)

val entries_seen : t -> int
(** Queries offered so far (the next sequence number). *)

val lines_written : t -> int
(** Lines actually written after sampling. *)

val rotated_chain : string -> string list
(** [rotated_chain path] is the existing files of the rotated pair in
    stream order: [path ^ ".1"] (the previous rotation, when present)
    followed by [path] (when present). Size rotation ([?max_bytes])
    keeps exactly one prior file and renames atomically, so reading
    the returned files in order yields a contiguous tail of the line
    stream — the order [simq qlog-top] and [simq batch --from-qlog]
    consume. Every pair state is handled: both files, only [path],
    only [path.1] (rotation fired on the final line and nothing was
    written after it), or neither — the result is then empty. *)

(** {1 Building entries} *)

val counter_deltas :
  before:Metrics.sample list ->
  after:Metrics.sample list ->
  (string * int) list
(** Pairs two {!Metrics.snapshot}s into per-counter deltas, keyed by
    the exposition name (labels rendered [name{k="v"}]). Only strictly
    positive deltas are kept — counters are monotone, so a registry
    [reset] between the snapshots surfaces as an absent key, never a
    negative delta. Gauges and histograms are ignored. *)

val render_line : seq:int -> entry -> string
(** The JSON line (no trailing newline) for [entry] at sequence
    [seq] — exposed pure so tests can check the grammar without a
    file. *)

(** {1 Offline aggregation (the [simq qlog-top] engine)} *)

type aggregate = {
  entries : int;
  total_duration_s : float;
  by_path : (string * int) list;  (** path → count, descending *)
  by_decision : (string * int) list;
  by_outcome : (string * int) list;
  by_fanout : (int * int) list;
      (** shard fanout → count, ascending fanout; only lines with a
          ["shards"] object participate *)
  by_trace : (int * float) list;
      (** trace id → summed duration, heaviest first (ties by
          ascending id), [top]-limited; only lines carrying a
          non-null ["trace_id"] participate *)
  top_by_duration : (int * string * float * int) list;
      (** (seq, spec, duration_s, trace_id), slowest first; trace is
          [0] for lines without the field *)
  top_by_pages : (int * string * int) list;
      (** (seq, spec, pages), most pages first; pages are the summed
          buffer-pool hit+miss deltas of the line *)
}

val aggregate : ?top:int -> Json.t list -> aggregate
(** Folds parsed qlog lines (non-qlog JSON values are skipped) into
    the breakdown above, keeping the [top] (default 5) heaviest
    entries per ranking. *)
