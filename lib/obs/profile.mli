(** Per-query operator-tree profiling — the [EXPLAIN ANALYZE] layer.

    A profile is an accumulator attached to one query. The executors
    ({!Simq_tsindex.Seqscan}, {!Simq_tsindex.Kindex},
    {!Simq_tsindex.Join}, {!Simq_tsindex.Subseq} and
    {!Simq_tsindex.Planner}) take it as an optional [?profile]
    argument and, when present, build a tree of operator nodes —
    planner node, access-path node, scan/index/join/subseq leaves —
    each recording wall time (via {!Clock}), rows in/out, pages
    touched, candidates and survivors, early-abandon hits, and
    degradation/retry events.

    Every operator is one {!with_op} bracket, which opens the node and
    the {!Trace} span of the same name together, so the Chrome trace
    of a profiled query shows the same operator tree. Every recorder
    takes the {e option} and is a no-op on [None], so the disabled
    path (no profile, tracing off) costs one immediate function call
    per site and allocates nothing. When a
    pool is involved, nodes are recorded only on the coordinating
    domain after the deterministic chunk-order merge, so the tree
    {e structure and counters} are identical at every domain count —
    only the timing fields vary (strip them with [~timings:false] to
    compare).

    Profiling is presentation only: it never changes an answer and
    never touches the metrics registry. *)

type t
(** One query's profile: a forest of operator nodes plus the stack of
    currently open ones. Not thread-safe — record from the
    coordinating domain only. *)

type node
(** One operator node. *)

val create : unit -> t
(** A fresh, empty profile (unstamped: {!trace_id} is [0]). *)

val set_trace : t -> int -> unit
(** Stamps the request id of the query this profile belongs to (see
    {!Trace.new_request_id}). Stamped centrally by the serve engine;
    [0] means unstamped. *)

val trace_id : t -> int
(** The stamped request id, [0] when none. *)

(** {1 Recording} *)

val with_op : t option -> string -> (node option -> 'a) -> 'a
(** [with_op profile name f] is one operator: it opens a node named
    [name] under the innermost open node (or as a new root), starts
    the {!Trace} span of the same name, runs [f] with the node, then
    finishes the span and closes the node (fixing its wall time), even
    if [f] raises. Nodes an exception left open below it close with
    it. So every profile node is also a span, covering exactly the
    node's stretch and nested alike on the recording domain. On
    [None] [f] gets [None]; with tracing on the span is still
    recorded. With no profile and tracing off, [f None] runs directly:
    no [Fun.protect] and no allocation beyond the caller's closure. *)

val current : t option -> node option
(** The innermost open node, [None] when none is open (or on [None]):
    where a caller that opened no node of its own records an event. *)

val set_detail : node option -> string -> unit
(** A free-form annotation shown next to the name (plan choice,
    admission decision, epsilon…). Last write wins. *)

(** Counter recorders: each adds to the node's tally; no-ops on
    [None]. *)

val add_rows_in : node option -> int -> unit

val add_rows_out : node option -> int -> unit

val add_pages : node option -> int -> unit

val add_candidates : node option -> int -> unit

val add_survivors : node option -> int -> unit

val add_early_abandon : node option -> int -> unit

val add_event : node option -> string -> unit
(** Appends a discrete event line (retry, degradation, typed error) to
    the node, in order. *)

(** {1 Reading} *)

val roots : t -> node list
(** Root nodes in creation order. *)

val children : node -> node list
(** Children in creation order. *)

val name : node -> string

val detail : node -> string

val rows_in : node -> int

val rows_out : node -> int

val pages : node -> int

val candidates : node -> int

val survivors : node -> int

val events : node -> string list
(** Events in emission order. *)

val find : t -> string -> node option
(** First node with the given name, depth-first. *)

val well_formed : t -> bool
(** No node left open, every counter non-negative, and every node's
    wall time is at least the sum of its children's (the children run
    sequentially inside the parent's interval, so this holds exactly
    on a monotonic clock). *)

(** {1 Rendering} *)

val render : ?timings:bool -> t -> string
(** The indented [EXPLAIN ANALYZE]-style text tree. With
    [~timings:false] the [time=] fields are omitted, making output for
    a fixed seed and query byte-identical at every [--jobs] setting.
    Default [true]. *)

val to_json : ?timings:bool -> t -> Json.t
(** The same tree as a self-describing JSON object
    ([{"event":"simq.profile","v":1,"roots":[…]}]); zero-valued
    counters are omitted from each node. When the profile carries a
    request id (see {!set_trace}) the root object gains a
    ["trace_id"] member — the correlation key shared with the query's
    qlog line and Chrome trace spans. *)
