(** The [simq serve] daemon core: a loopback TCP listener answering
    {!Protocol} requests against a resident {!Engine}, built to stay
    alive under hostile clients and injected faults.

    Robustness properties (the chaos suite in [test/test_serve.ml]
    exercises each):

    - {b worker isolation} — every connection runs on its own thread;
      a malformed line, an oversized line, a query that fails, or any
      exception escaping the engine becomes a one-line error response
      carrying the {!Simq_cli} exit-code taxonomy, never a dead
      server;
    - {b load shedding} — with [max_inflight] set, a request arriving
      while that many queries are executing or queued is refused
      through {!Simq_admission.shed} (a typed [rejected]/exit-5
      response on the [in_flight] resource, counted in the admission
      decision metrics) {e before} any page is read;
    - {b slow peers} — [idle_timeout] reaps connections that stop
      sending (the read times out); [write_timeout] bounds every
      response write, so a client that stops reading cannot wedge a
      worker;
    - {b graceful drain} — {!request_drain} (the [shutdown] command, or
      the SIGTERM/SIGINT handlers installed by the CLI) stops the
      accept loop, lets in-flight queries finish and their responses
      flush, then closes every connection; {!wait} returns once the
      last worker exits, after which the CLI dumps
      metrics/qlog/state.

    Queries execute one at a time under an engine mutex (connection
    I/O stays concurrent), so registry snapshots bracket exactly one
    query and the query-log entry stream is well-formed; the executed
    query's time ([Engine.note]'s duration) is observed through
    {!Simq_report.Timer}, feeding the [simq_timer_seconds] histogram
    the admission policy predicts deadlines from.

    Every query line is issued a request id
    ({!Simq_obs.Trace.new_request_id}) published for the duration of
    its serialized execution, so the query's qlog line ([trace_id]),
    profile root and every trace span it emits — across pool domains
    and shards — carry the same id even with concurrent connections.
    The daemon also counts traffic ([simq_serve_queries_total],
    [simq_serve_shed_total]) for the {!Simq_obs.History} window. *)

type t

(** [start ?max_inflight ?max_line_bytes ?idle_timeout ?write_timeout
    ?policy ?qlog ~engine ~port ()] binds [127.0.0.1:port] (0 picks an
    ephemeral port — see {!port}) and starts the accept thread.
    [policy] (default {!Simq_admission.default}) accounts shed
    requests; [qlog] receives one entry per executed query, exactly as
    [simq query --qlog] writes them. [max_line_bytes] defaults to
    {!Protocol.max_line_bytes}; timeouts are in seconds and must be
    positive when given ([Invalid_argument] otherwise, as is
    [max_inflight < 0]). [slow_k] (default: none; [Invalid_argument]
    if [< 1]) keeps a worst-[k] slow-query exemplar store
    ({!Simq_obs.Slow}) fed by every executed query — each query is
    then profiled internally for its rendered tree, though the
    response only carries a profile when the client asked — and
    served by the [slow] protocol command. Raises [Unix.Unix_error]
    when the port cannot be bound. *)
val start :
  ?max_inflight:int ->
  ?max_line_bytes:int ->
  ?idle_timeout:float ->
  ?write_timeout:float ->
  ?policy:Simq_admission.t ->
  ?qlog:Simq_obs.Qlog.t ->
  ?slow_k:int ->
  engine:Engine.t ->
  port:int ->
  unit ->
  t

(** The bound port — the ephemeral one when [start] was given 0. *)
val port : t -> int

type stats = {
  served : int;  (** queries executed (whatever their outcome) *)
  shed : int;  (** requests refused by the in-flight cap *)
  errors : int;  (** error responses other than sheds *)
  connections : int;  (** connections ever accepted *)
  workers : int;
      (** connections being served now: worker threads not yet exited
          (a worker forgets its thread as its last action) *)
  in_flight : int;
      (** queries executing or waiting for the engine now, sheds
          excluded *)
}

(** Monotonic totals since [start], and the current [workers] and
    [in_flight]; safe from any thread. *)
val stats : t -> stats

(** [request_drain t] begins a graceful shutdown: the listener stops
    accepting, workers finish the query they are executing, every
    connection is then closed. Idempotent, safe from signal handlers
    and worker threads. *)
val request_drain : t -> unit

(** [wait t] blocks until the accept thread and every worker have
    exited (i.e. until someone calls {!request_drain} — or a client
    sends [shutdown] — and the drain completes). *)
val wait : t -> unit

(** [stop t] is {!request_drain} followed by {!wait} and resource
    cleanup. Idempotent. *)
val stop : t -> unit

(** [with_server ?... ~engine ~port f] runs [f] against a started
    server and stops it on every exit path. *)
val with_server :
  ?max_inflight:int ->
  ?max_line_bytes:int ->
  ?idle_timeout:float ->
  ?write_timeout:float ->
  ?policy:Simq_admission.t ->
  ?qlog:Simq_obs.Qlog.t ->
  ?slow_k:int ->
  engine:Engine.t ->
  port:int ->
  (t -> 'a) ->
  'a
