(** Nearest-neighbour search over an R*-tree: best-first traversal
    ordered by MINDIST ([RKV95]; the priority-queue formulation visits
    provably minimal numbers of nodes).

    The optional [transform] applies a safe transformation to every MBR
    and data point during the traversal — the NN variant of the paper's
    Algorithm 2: “as we go down the tree, we apply T to all entries of
    the node we visit”. *)

(** [nearest ?transform t ~query ~k] is the [k] data points minimising
    the distance from [query] to the (transformed) stored point, closest
    first, with their distances. Fewer than [k] results are returned only
    when the tree is smaller than [k]. *)
val nearest :
  ?transform:Simq_geometry.Linear_transform.t ->
  'a Rstar.t ->
  query:Simq_geometry.Point.t ->
  k:int ->
  (Simq_geometry.Point.t * 'a * float) list

(** [nearest_custom t ~rect_bound ~point_dist ~k] is the generic engine:
    [point_dist] receives each data entry's rectangle (degenerate for
    point data) and [rect_bound] must lower-bound it over all entries in
    the rectangle. Used by the polar k-index, where the effective
    distance is computed on decoded complex features.

    [visit] is called once per internal/leaf node expansion, before the
    node's entries are pushed — the hook the budgeted entry points use
    to charge node accesses (it may raise to abort the traversal).

    [data_rank] breaks distance ties among data entries
    deterministically: among equal distances, entries pop (and are
    emitted) in increasing rank, and equal-key internal nodes are
    always expanded before any tied data entry is emitted — so the
    tie set at the k-th boundary is canonical (smallest ranks win)
    rather than heap-insertion-order dependent. Without it, tied
    entries keep the historical arbitrary order.

    [point_bound], when given, must lower-bound [point_dist] on every
    data entry. Entries are then queued under the cheap bound and
    refined only when they surface (the multi-step filter-and-refine
    pattern of Seidl and Kriegel), which skips the exact distance
    entirely for entries that never reach the top of the queue. The
    traversal keeps the [k] best refined distances seen so far; call
    the k-th of them [within] ([infinity] until [k] entries have been
    refined). An entry whose bound is strictly greater than [within]
    is not queued, since it can never be emitted. A surfacing entry
    is refined by [refine r v ~within] (default: [point_dist r v]),
    which must return the exact distance or, when that exceeds
    [within], any lower bound strictly greater than [within] — the
    entry is then dropped, so refinement may abandon early. Ties with
    [within] are refined and queued, so [data_rank] still decides the
    tie set at the k-th boundary. Node expansions are the same as
    without a bound: results, their order and the nodes visited are
    identical to the unbounded traversal. *)
val nearest_custom :
  ?visit:(unit -> unit) ->
  ?data_rank:('a -> int) ->
  ?point_bound:(Simq_geometry.Rect.t -> 'a -> float) ->
  ?refine:(Simq_geometry.Rect.t -> 'a -> within:float -> float) ->
  'a Rstar.t ->
  rect_bound:(Simq_geometry.Rect.t -> float) ->
  point_dist:(Simq_geometry.Rect.t -> 'a -> float) ->
  k:int ->
  (Simq_geometry.Point.t * 'a * float) list
