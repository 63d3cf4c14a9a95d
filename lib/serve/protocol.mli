(** The [simq serve] line protocol: one request per line in, one
    self-describing JSON line out.

    Requests are newline-framed. A query spec travels {e escaped}
    ({!escape}) so that multi-line text — or any byte sequence — fits
    on one line; the reserved command words [ping], [shutdown] and the
    [profile ] prefix are matched on the raw line before unescaping
    (query-language keywords are case-insensitive, so no legal spec
    collides with the lowercase command words). A query's response
    and its [simq batch] line come from one renderer
    ({!result_line}): an ["event"] tag, the outcome string with its
    mapped exit code, and the rendered answers — any JSON-lines tool
    can aggregate a session transcript.

    Everything here is pure string/JSON manipulation, shared by the
    server ({!Server}), the stress harness ({!Stress}) and the tests;
    no sockets. *)

(** Hard cap on the length of one request line, in bytes. The server
    answers an over-long line with a [usage] error and discards input
    to the next newline, so one runaway client cannot balloon server
    memory. *)
val max_line_bytes : int

(** [escape s] maps backslash, newline, carriage return and tab to
    two-character escapes ([\\], [\n], [\r], [\t]); every other byte —
    including non-ASCII — passes through. {!parse_request} inverts it
    on a query's spec; a trailing backslash or an unknown escape is an
    error there. *)
val escape : string -> string

type request =
  | Ping  (** liveness probe; answered without touching the engine *)
  | Shutdown
      (** ask the server to drain: stop accepting, finish in-flight
          queries, dump observability state *)
  | Slow
      (** [slow]: fetch the daemon's slow-query exemplar store
          ({!Simq_obs.Slow}) — a usage error when the daemon runs
          without one *)
  | Query of {
      profile : bool;
          (** [profile <spec>]: attach the per-query operator tree
              ({!Simq_obs.Profile}) to the response *)
      spec : string;  (** unescaped query-language text *)
    }

(** [parse_request line] classifies one raw request line. Errors name
    the offending escape; blank lines are the caller's concern. *)
val parse_request : string -> (request, string) result

(** {1 Response lines}

    Each renderer returns one JSON line {e without} the trailing
    newline. [seq] is the per-connection response sequence number, so
    a client can match pipelined requests to responses. *)

(** [result_line ~event ~seq ?digest ?profile note result] is the
    line of one finished query — the [simq.serve] response
    ([event = "simq.serve"]) and the [simq.batch] result line
    ([event = "simq.batch"]) alike — projected from the engine's
    request record: spec, [digest] when given, the executed path
    ([null] on an error line), the admission decision, the outcome
    with its exit code, then the answer count, ["partial":true] for an
    anytime partial answer (a complete one has no such member) and the
    rendered rows — or, for [Error message], the one-line message —
    and the execution time. [profile] attaches the per-query operator
    tree. *)
val result_line :
  event:string ->
  seq:int ->
  ?digest:string ->
  ?profile:Simq_obs.Json.t ->
  Engine.note ->
  (Engine.outcome, string) result ->
  string

(** [ok_line ~seq ~spec ~path ~decision ?partial ~answers ~results
    ~duration_s ?profile ()] is {!result_line}'s [simq.serve] success
    response for a caller holding the fields rather than a record. *)
val ok_line :
  seq:int ->
  spec:string ->
  path:string option ->
  decision:string option ->
  ?partial:bool ->
  answers:int ->
  results:Simq_obs.Json.t ->
  duration_s:float ->
  ?profile:Simq_obs.Json.t ->
  unit ->
  string

(** [error_line ~seq ~outcome ~exit_code ~message ()] is the response
    to a request line that never reached the engine (an unparsable or
    over-long line, a [slow] command without a store): a [null] spec,
    the {!Simq_cli} outcome string with its exit code and a one-line
    message. *)
val error_line :
  seq:int -> outcome:string -> exit_code:int -> message:string -> unit -> string

(** [pong_line ~seq] answers {!Ping} (["event":"simq.serve.pong"]). *)
val pong_line : seq:int -> string

(** [slow_line ~seq store] answers {!Slow}
    (["event":"simq.serve.slow"]) with the rendered exemplar store
    ({!Simq_obs.Slow.to_json}) under the ["slow"] member. *)
val slow_line : seq:int -> Simq_obs.Json.t -> string

(** [shutdown_line ~seq] acknowledges {!Shutdown}
    (["event":"simq.serve.shutdown"]) before the connection closes. *)
val shutdown_line : seq:int -> string
