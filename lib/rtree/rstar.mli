(** An in-memory R*-tree ([BKSS90]) over points of an n-dimensional space,
    carrying one payload value per point.

    The R*-tree improves on Guttman's R-tree [Gut84] with an
    overlap-minimising ChooseSubtree, a margin-driven split and forced
    reinsertion. Every node visit is counted so experiments can report
    node (page) accesses alongside wall-clock time. *)

type 'a t

(** Which member of the R-tree family maintains the tree:
    [Rstar_variant] is the full [BKSS90] algorithm (overlap-minimising
    ChooseSubtree, margin split, forced reinsertion);
    [Guttman_variant] is the classic [Gut84] R-tree (least-enlargement
    ChooseSubtree, quadratic split, no reinsertion), kept as the
    ablation baseline. Queries are identical in both. *)
type variant = Rstar_variant | Guttman_variant

(** [create ~dims ()] is an empty tree for [dims]-dimensional points.
    [max_fill] is the node capacity M (default 32, a typical page
    fanout); [min_fill] defaults to [2*M/5] per [BKSS90]; [variant]
    defaults to [Rstar_variant]. Raises [Invalid_argument] for
    non-positive dims or capacities that cannot satisfy
    [2 <= min_fill <= max_fill/2]. *)
val create :
  ?max_fill:int -> ?min_fill:int -> ?variant:variant -> dims:int -> unit ->
  'a t

val dims : 'a t -> int

(** [size t] is the number of data points stored. *)
val size : 'a t -> int

(** [height t] is the number of levels; 1 for a tree holding only a root
    leaf. *)
val height : 'a t -> int

(** [insert t point value] adds a data point (stored as a degenerate
    rectangle). Raises [Invalid_argument] on dimension mismatch. *)
val insert : 'a t -> Simq_geometry.Point.t -> 'a -> unit

(** [fold_region_counted t ~overlaps ~matches ~init ~f] is the generic
    traversal behind every query in the library: descend into each
    subtree whose MBR satisfies [overlaps] and feed [f] every data entry
    of the reached leaves whose rectangle satisfies [matches] (a
    degenerate rectangle for point data — its [lo] is the point).
    Algorithms 1–2 of the paper are obtained by making [overlaps] and
    [matches] apply a safe transformation before testing — the index is
    “transformed on the fly”. The nodes visited are counted into the
    {e returned} value instead of the tree's cumulative
    {!node_accesses} counter. The traversal then writes no shared
    state, so read-only queries may run concurrently from several
    domains; credit the count with {!add_accesses} afterwards if the
    cumulative statistics should include it.

    When [budget] (the query attempt's state) is given, every node
    visit passes {!Simq_fault.Budget.node_access}: the attempt's fault
    plan may raise {!Simq_fault.Injector.Transient_fault}, and the
    visit is checked and charged one node access, so the traversal may
    raise {!Simq_fault.Budget.Exceeded}. Both fire before the node is
    examined or counted. Without it no visit can fail. *)
val fold_region_counted :
  ?budget:Simq_fault.Budget.state ->
  'a t ->
  overlaps:(Simq_geometry.Rect.t -> bool) ->
  matches:(Simq_geometry.Rect.t -> 'a -> bool) ->
  init:'acc ->
  f:('acc -> Simq_geometry.Rect.t -> 'a -> 'acc) ->
  'acc * int

(** [add_accesses t n] adds [n] to {!node_accesses} (used with
    {!fold_region_counted}; single-domain callers only). *)
val add_accesses : 'a t -> int -> unit

(** [search_rect t rect] collects all data entries intersecting [rect]
    (for point data: all points inside). Returned points are the data
    rectangles' [lo] corners. *)
val search_rect :
  'a t -> Simq_geometry.Rect.t -> (Simq_geometry.Point.t * 'a) list

(** [search_region t region] collects all data entries intersecting a
    (possibly circular) region. *)
val search_region :
  'a t -> Simq_geometry.Region.t -> (Simq_geometry.Point.t * 'a) list

(** [iter t ~f] visits every stored data entry (point = [lo] corner). *)
val iter : 'a t -> f:(Simq_geometry.Point.t -> 'a -> unit) -> unit

(** [to_list t] is every stored data entry. *)
val to_list : 'a t -> (Simq_geometry.Point.t * 'a) list

(** [node_accesses t] is the cumulative number of nodes visited by
    queries and updates since creation or the last {!reset_stats};
    the in-memory stand-in for the paper's disk accesses. *)
val node_accesses : 'a t -> int

val reset_stats : 'a t -> unit

(** {2 Internal access for sibling modules}

    Exposed for {!Bulk}, {!Nn} and {!Check}; not part of the
    stable API. *)

val root : 'a t -> 'a Node.node
val set_root : 'a t -> 'a Node.node -> size:int -> unit
val min_fill : 'a t -> int
val max_fill : 'a t -> int
val count_access : 'a t -> unit

(** The shared leaf-fanout histogram ([simq_rtree_leaf_fanout]);
    {!Bulk} observes its leaves into it at load time. *)
val m_leaf_fanout : Simq_obs.Metrics.histogram
