(** The [simq serve] line protocol: one request per line in, one
    self-describing JSON line out.

    Requests are newline-framed. A query spec travels {e escaped}
    ({!escape}) so that multi-line text — or any byte sequence — fits
    on one line; the reserved command words [ping], [shutdown] and the
    [profile ] prefix are matched on the raw line before unescaping
    (query-language keywords are case-insensitive, so no legal spec
    collides with the lowercase command words). Responses reuse the
    JSON-lines vocabulary of [simq batch]: an ["event"] tag, the
    outcome string with its mapped exit code, and the rendered answers
    — any JSON-lines tool can aggregate a session transcript.

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
    including non-ASCII — passes through. [unescape] inverts it;
    a trailing backslash or an unknown escape is an error.
    [unescape (escape s) = Ok s] for every string. *)
val escape : string -> string

val unescape : string -> (string, string) result

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

(** [ok_line ~seq ~spec ~path ~decision ?partial ~answers ~results
    ~duration_s ?profile ()] is the success response:
    ["event":"simq.serve"], outcome ["ok"]/exit [0], the executed
    access path and admission decision when known, the answer count,
    the rendered answer rows and the server-side execution time. An
    anytime answer cut short by its budget ([partial], default
    [false]) carries ["partial":true] after the count; a complete one
    has no such member. *)
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

(** [error_line ~seq ?spec ~outcome ~exit_code ~message ()] is the
    failure response, carrying the {!Simq_cli} outcome string and exit
    code ([usage]/1, [file]/2, the typed fault kind/4, [rejected]/5)
    and a one-line human-readable message. *)
val error_line :
  seq:int ->
  ?spec:string ->
  outcome:string ->
  exit_code:int ->
  message:string ->
  unit ->
  string

(** [pong_line ~seq] answers {!Ping} (["event":"simq.serve.pong"]). *)
val pong_line : seq:int -> string

(** [slow_line ~seq store] answers {!Slow}
    (["event":"simq.serve.slow"]) with the rendered exemplar store
    ({!Simq_obs.Slow.to_json}) under the ["slow"] member. *)
val slow_line : seq:int -> Simq_obs.Json.t -> string

(** [shutdown_line ~seq] acknowledges {!Shutdown}
    (["event":"simq.serve.shutdown"]) before the connection closes. *)
val shutdown_line : seq:int -> string
