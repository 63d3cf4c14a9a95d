(** Nearest-neighbour search over an R*-tree: best-first traversal
    ordered by MINDIST ([RKV95]; the priority-queue formulation visits
    provably minimal numbers of nodes).

    The optional [transform] applies a safe transformation to every MBR
    and data point during the traversal — the NN variant of the paper's
    Algorithm 2: “as we go down the tree, we apply T to all entries of
    the node we visit”. *)

(** [nearest ?transform t ~query ~k] is the [k] data points minimising
    the distance from [query] to the (transformed) stored point, closest
    first, with their distances, found by {!best_first}. Fewer than [k]
    results are returned only when the tree is smaller than [k]. *)
val nearest :
  ?transform:Simq_geometry.Linear_transform.t ->
  'a Rstar.t ->
  query:Simq_geometry.Point.t ->
  k:int ->
  (Simq_geometry.Point.t * 'a * float) list

(** [best_first t ~node_bound ~key ~rank ~k] is the one best-first
    traversal behind every nearest-neighbour search: the [k] data
    entries of [t] with the smallest distances, closest first, each
    with its data point, value and distance.

    [node_bound r c] writes into [c.sum] a lower bound of the distance
    of every entry under a node whose MBR is [r]. [key r v c] writes
    into [c.sum] the key of the data entry [(r, v)] (its rectangle is
    degenerate for point data): its distance when [refine] is absent,
    else a lower bound of it. Both must be true lower bounds, down to
    the last ulp: a tie at the k-th boundary is decided by [rank] only
    if no bound exceeds the distance it bounds. Any such bound, however
    tight, leaves the results unchanged; a tighter one only keys fewer
    entries and expands fewer nodes. The k-index's bounds count each
    feature and head coefficient with its conjugate twin and subtract
    the slack that makes them safe against rounding
    ({!Simq_dsp.Flat.rounding_slack}, [Simq_tsindex.Kindex.twin_slack]).
    The queue holds the tree's own entries, with an integer
    state telling nodes, keyed and refined entries apart, so a push
    allocates nothing.

    [visit] is called once per internal/leaf node expansion, before the
    node's entries are queued — the hook the budgeted entry points use
    to charge node accesses (it may raise to abort the traversal).

    [rank] breaks distance ties among data entries deterministically:
    among equal distances, entries pop (and are emitted) in increasing
    rank, and equal-key nodes are always expanded before any tied data
    entry is emitted — so the tie set at the k-th boundary is
    canonical (smallest ranks win). Entries equal in both pop in the
    order they were queued.

    [refine], when given, makes [key] a lower bound: entries are queued
    under it and refined only when they surface (the multi-step
    filter-and-refine pattern of Seidl and Kriegel), which skips the
    exact distance entirely for entries that never reach the top of
    the queue. The traversal keeps the [k] best refined distances seen
    so far; call the k-th of them [within] (the seed below until [k]
    entries have been refined). An entry whose key is strictly greater
    than [within] is not queued, since it can never be emitted. A
    surfacing entry [(r, v)] is refined by [refine r v c], called with
    [c.sum = within]; it must write into [c.sum] the exact distance or,
    when that exceeds [within], any lower bound strictly greater than
    [within] — the entry is then dropped, so refinement may abandon
    early. Ties with [within] are refined and queued, so [rank] still
    decides the tie set at the k-th boundary. Node expansions are the
    same as without a bound: results, their order and the nodes
    visited are identical to the traversal whose [key] is the distance.

    [within] (default [infinity]) seeds that bound: the traversal
    starts as if [k] entries at distance [within] had been refined. A
    node or keyed entry whose bound is strictly above the current
    [within] is not queued, nor, without [refine], a data entry whose
    distance is; nothing queued can later pop above it, since the [k]
    refined entries at or below a lowered bound pop first. So the
    result is the first [k] of the entries at distance [<= within] in
    the traversal's order — the unseeded result cut at [within], ties
    at [within] included — and a sharded search seeded with another
    shard's k-th distance misses nothing of the global top [k]. With
    [within = infinity] the nodes expanded, the entries keyed and the
    refinements are exactly the unseeded traversal's: a node or entry
    above the k-th refined distance would never have popped.

    Raises [Invalid_argument] when [k <= 0]. *)
val best_first :
  ?visit:(unit -> unit) ->
  ?refine:(Simq_geometry.Rect.t -> 'a -> Simq_dsp.Flat.acc -> unit) ->
  ?within:float ->
  'a Rstar.t ->
  node_bound:(Simq_geometry.Rect.t -> Simq_dsp.Flat.acc -> unit) ->
  key:(Simq_geometry.Rect.t -> 'a -> Simq_dsp.Flat.acc -> unit) ->
  rank:('a -> int) ->
  k:int ->
  (Simq_geometry.Point.t * 'a * float) list
