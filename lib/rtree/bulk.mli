(** Sort-Tile-Recursive (STR) bulk loading: packs a static data set into
    an R*-tree with near-full nodes, much faster than repeated insertion
    and with better query performance on static workloads — the natural
    way to build the paper's k-index over an existing relation. *)

(** [load ?max_fill ?min_fill ~dims items] builds a tree containing all
    [items]. Raises [Invalid_argument] on a dimension mismatch. *)
val load :
  ?max_fill:int ->
  ?min_fill:int ->
  dims:int ->
  (Simq_geometry.Point.t * 'a) array ->
  'a Rstar.t

(** [load_rects ?max_fill ?min_fill ~dims items] bulk-loads rectangle
    data entries (tiled by their centres) — used by the subsequence
    index's MBR trails. *)
val load_rects :
  ?max_fill:int ->
  ?min_fill:int ->
  dims:int ->
  (Simq_geometry.Rect.t * 'a) array ->
  'a Rstar.t

(** [shape t] is the fan-out of every node of [t], level by level from
    the leaves ([shape.(0)]) up to the root (the one-element last
    level), each level's nodes in traversal order. [[||]] for an empty
    tree. *)
val shape : 'a Rstar.t -> int array array

(** [pack ?max_fill ?min_fill ~dims ~shape items] rebuilds a tree from
    its {!shape} and its data entries in traversal ({!Rstar.iter})
    order, without sorting: leaf [j] takes the next [shape.(0).(j)]
    items, and each node above the next run of nodes below. Packed from
    [shape t] and [t]'s entries, with [t]'s [max_fill] and [min_fill],
    the result equals [t] node for node, MBRs bit for bit. Raises
    [Invalid_argument] on a dimension mismatch or when [shape] does
    not fit [items] (a fan-out outside [1 .. max_fill], a level whose
    fan-outs do not sum to the size of the level below, or a top level
    that is not one root). *)
val pack :
  ?max_fill:int ->
  ?min_fill:int ->
  dims:int ->
  shape:int array array ->
  (Simq_geometry.Point.t * 'a) array ->
  'a Rstar.t
