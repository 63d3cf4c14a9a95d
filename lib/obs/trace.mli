(** Span tracing with per-domain buffers and Chrome trace-event export.

    A span is a named begin/end interval on the monotonic clock
    (via [bechamel.monotonic_clock], [CLOCK_MONOTONIC] under the
    hood). Spans opened while another span of the same domain is
    still open nest under it; each domain records into its own
    buffer, so tracing never takes a lock on the hot path. The whole
    subsystem is guarded by a global flag ({!on}) — disabled, a span
    site costs one atomic load and branch and allocates nothing.

    {!export} merges every domain's buffer into Chrome trace-event
    JSON (the [chrome://tracing] / Perfetto format): one ["ph":"X"]
    complete event per finished span, with the domain id as [tid] and
    span/parent ids in [args], so a query's
    plan → index descent → postfilter → merge timeline is inspectable
    in any trace viewer.

    Every operator of a query opens its span through
    {!Profile.with_op}, together with the profile node of the same
    name, so on the coordinating domain the spans named like nodes
    nest exactly as the profile tree does. {!with_span} is for what
    has no node: setup phases ([image.*], [prepare], [build], the
    engine's [shard] and [sketch]), the batch executor, merges
    ([join.merge], [seqscan.merge]) and admission decisions made
    outside an operator. *)

(** [on ()] is the current state of the tracing flag (default
    off; the [--trace FILE] CLI flag turns it on). *)
val on : unit -> bool

val set_enabled : bool -> unit

(** {1 Request-scoped correlation}

    A request id correlates every telemetry record of one query —
    trace spans ([args.trace] in the Chrome export), the profile tree
    root and the qlog line — across domains and shards, even with
    concurrent connections. Ids are allocated unconditionally (one
    atomic increment), independent of the span-tracing flag. *)

(** [new_request_id ()] allocates the next process-unique request id
    (ids start at 1; [0] always means "no request"). *)
val new_request_id : unit -> int

(** [current_request ()] is the ambient request id seen by the
    calling domain: its own domain-local binding when one is set, the
    process-global binding otherwise, [0] when neither is. *)
val current_request : unit -> int

(** [with_request ?global id f] runs [f ()] with [id] as the ambient
    request id, restoring the previous bindings even if [f] raises.
    With [global] (the default) the id is also published
    process-wide, so pool worker domains fanning out on behalf of the
    request observe it — correct whenever request execution is
    serialized (the serve daemon's engine mutex, a CLI query).
    [~global:false] binds only the calling domain — the inter-query
    batch executor's per-task binding, where concurrent tasks each
    own one domain. *)
val with_request : ?global:bool -> int -> (unit -> 'a) -> 'a

(** An open span. [Disabled] (when tracing is off) makes
    {!finish} a no-op. *)
type span

(** [start name] opens a span on the calling domain, nested under the
    domain's innermost open span. Its Chrome trace category is
    ["simq"]. *)
val start : string -> span

(** [finish s] closes the span and records one trace event into the
    calling domain's buffer. Spans must be finished on the domain
    that started them and in LIFO order (which [with_span]
    guarantees). *)
val finish : span -> unit

(** [with_span name f] runs [f ()] inside a span, finishing it even
    if [f] raises. An operator with a profile node takes
    {!Profile.with_op} instead, which opens both. *)
val with_span : string -> (unit -> 'a) -> 'a

(** [open_spans ()] is the number of started-but-unfinished spans
    across all domains; [0] once every [with_span] has unwound (the
    "no dangling spans" test). *)
val open_spans : unit -> int

(** [event_count ()] is the number of finished spans recorded so
    far. *)
val event_count : unit -> int

(** [event_traces ()] is the request id stamped on each finished
    span, in buffer order ([0] for spans recorded outside any
    request) — the correlation hook for tests. *)
val event_traces : unit -> int list

(** [export oc] writes the merged buffers as a Chrome trace-event
    JSON object ([{"traceEvents": [...]}]) to [oc]. Events are
    sorted by start time. *)
val export : out_channel -> unit

(** [export_file path] is {!export} to a fresh file at [path]. *)
val export_file : string -> unit

(** [reset ()] drops all recorded events and open-span bookkeeping
    (used by tests). *)
val reset : unit -> unit
