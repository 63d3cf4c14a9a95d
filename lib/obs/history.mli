(** Bounded telemetry history: a ring of periodic registry snapshots
    and the windowed-rate view computed over the newest pair.

    Lifetime counters answer "how much ever"; an operator watching a
    live daemon needs "how much {e now}". A history holds up to
    [capacity] timestamped {!Metrics.snapshot}s, taken by a
    fixed-interval sampler thread (and on demand by {!document}, so
    one probe always has a fresh endpoint), and derives windowed
    rates from the deltas between the two newest: qps and shed rate
    from the serve counters, shard pruning rate, per-level sketch
    filter counts, pool imbalance, and latency quantiles read off the
    [simq_timer_seconds] log-scale bucket deltas.

    Reading never writes a metric: the sampler calls
    {!Metrics.snapshot} (an atomic merge-on-read) and stores the
    result, so its presence leaves every merged counter total
    identical at any domain count. A history that is never created or
    started costs nothing — there are no global hooks. *)

type t
(** One history: bounded snapshot ring plus the optional sampler
    thread. All operations are thread-safe. *)

val create :
  ?registry:Metrics.registry -> ?capacity:int -> ?interval_s:float -> unit -> t
(** [create ()] is an empty history over the default registry.
    [capacity] (default [120]; [Invalid_argument] if [< 2]) bounds
    the ring; [interval_s] (default [1.]; [Invalid_argument] unless
    finite positive) is the sampler period. *)

val interval_s : t -> float

val capacity : t -> int

val sample : t -> unit
(** Takes one snapshot now, evicting the oldest at capacity. *)

val start : t -> unit
(** Takes an immediate snapshot and spawns the sampler thread, which
    adds one every [interval_s] until {!stop}. Idempotent while
    running. *)

val stop : t -> unit
(** Stops and joins the sampler thread (within one sleep tick, not
    one interval). Idempotent; the ring survives. *)

val length : t -> int
(** Snapshots currently held. *)

(** The windowed view between the two newest snapshots. Counter
    deltas are clamped at [0] (a registry reset between samples
    surfaces as an empty window, never a negative rate). *)
type window = {
  dt_s : float;  (** seconds between the two snapshots *)
  queries : int;  (** served-query delta ([simq_serve_queries_total]) *)
  shed : int;  (** load-shed delta ([simq_serve_shed_total]) *)
  qps : float;  (** [queries /. dt_s] *)
  shed_rate : float;  (** [shed / (queries + shed)]; [0.] when idle *)
  shard_fanout : int;  (** executed-shard delta *)
  shard_pruned : int;  (** catalogue-pruned shard delta *)
  prune_rate : float;
      (** pruned share of planned shards,
          [pruned / (fanout + pruned)] *)
  sketch_filtered : (string * int) list;
      (** per-level ([coarse], [segment]) sketch dismissal deltas *)
  sketch_filter_rate : float;
      (** sketch-dismissed share of the window's k-index candidates *)
  pool_imbalance : float;
      (** [simq_pool_imbalance_ratio] at the newest snapshot *)
  latency_count : int;  (** timer observations inside the window *)
  p50_s : float;
      (** median windowed timer latency — the upper bound of the
          first [simq_timer_seconds] bucket whose cumulative delta
          count reaches the quantile; [0.] when the window saw no
          observation *)
  p99_s : float;
}

val window : t -> window option
(** The view over the two newest snapshots; [None] with fewer than
    two. *)

val to_json : t -> Json.t
(** The self-describing history document:
    [{"event":"simq.history","v":1,"samples":…,"capacity":…,
    "interval_ms":…,"window":…}] with ["window"] [null] while fewer
    than two snapshots exist. *)

val document : t -> string
(** {!sample} then {!to_json}, rendered — the [GET /history] provider
    for {!Serve.start}, so a probe polling faster than the sampler
    still sees a fresh window. *)
