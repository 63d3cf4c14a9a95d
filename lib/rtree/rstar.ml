open Simq_geometry

let m_node_visits =
  Simq_obs.Metrics.counter ~help:"R*-tree nodes visited (queries and updates)"
    "simq_rtree_node_visits_total"

let m_splits =
  Simq_obs.Metrics.counter ~help:"Node splits" "simq_rtree_splits_total"

let m_reinserts =
  Simq_obs.Metrics.counter ~help:"Entries force-reinserted by OverflowTreatment"
    "simq_rtree_reinserts_total"

let m_leaf_fanout =
  Simq_obs.Metrics.histogram ~help:"Leaf entry counts after splits and bulk loads"
    "simq_rtree_leaf_fanout"

type variant = Rstar_variant | Guttman_variant

type 'a t = {
  mutable root : 'a Node.node;
  mutable size : int;
  dims : int;
  max_fill : int;
  min_fill : int;
  variant : variant;
  mutable node_accesses : int;
}

(* Fraction of a node reinserted by OverflowTreatment; 30% per BKSS90. *)
let reinsert_fraction = 0.3

let create ?(max_fill = 32) ?min_fill ?(variant = Rstar_variant) ~dims () =
  if dims <= 0 then invalid_arg "Rstar.create: dims must be positive";
  let min_fill =
    match min_fill with
    | Some m -> m
    | None -> max 2 (max_fill * 2 / 5)
  in
  if min_fill < 2 || min_fill > max_fill / 2 then
    invalid_arg "Rstar.create: need 2 <= min_fill <= max_fill/2";
  {
    root = Node.empty_leaf ~dims;
    size = 0;
    dims;
    max_fill;
    min_fill;
    variant;
    node_accesses = 0;
  }

let dims t = t.dims
let size t = t.size
let height t = t.root.Node.level + 1
let node_accesses t = t.node_accesses
let reset_stats t = t.node_accesses <- 0
let root t = t.root

let set_root t node ~size =
  t.root <- node;
  t.size <- size

let min_fill t = t.min_fill
let max_fill t = t.max_fill
let count_access t =
  t.node_accesses <- t.node_accesses + 1;
  Simq_obs.Metrics.incr m_node_visits

(* --- insertion --------------------------------------------------------- *)

let child_node = function
  | Node.Child c -> c
  | Node.Data _ -> assert false

(* ChooseSubtree. BKSS90: at the level just above the leaves minimise
   overlap enlargement; above that minimise area enlargement. Guttman's
   classic rule is least area enlargement at every level. *)
let choose_child t node entry =
  let e_mbr = Node.entry_mbr entry in
  let children = List.map child_node node.Node.entries in
  let better (score_a, area_a) (score_b, area_b) =
    score_a < score_b || (score_a = score_b && area_a < area_b)
  in
  let pick score =
    match children with
    | [] -> assert false
    | first :: rest ->
      let rec go best best_key = function
        | [] -> best
        | c :: rest ->
          let key = score c in
          if better key best_key then go c key rest else go best best_key rest
      in
      go first (score first) rest
  in
  if node.Node.level = 1 && t.variant = Rstar_variant then begin
    let overlap_delta c =
      let enlarged = Rect.union c.Node.mbr e_mbr in
      List.fold_left
        (fun acc o ->
          if o == c then acc
          else
            acc
            +. Rect.overlap_area enlarged o.Node.mbr
            -. Rect.overlap_area c.Node.mbr o.Node.mbr)
        0. children
    in
    pick (fun c ->
        ( overlap_delta c,
          Rect.enlargement c.Node.mbr ~extra:e_mbr +. (Rect.area c.Node.mbr /. 1e12) ))
  end
  else
    pick (fun c ->
        (Rect.enlargement c.Node.mbr ~extra:e_mbr, Rect.area c.Node.mbr))

(* Guttman's quadratic split: PickSeeds maximises the dead area of the
   seed pair, PickNext assigns the entry with the largest preference
   difference, with the min_fill guard. Returns the new sibling. *)
let quadratic_split t node =
  let entries = Array.of_list node.Node.entries in
  let count = Array.length entries in
  let mbrs = Array.map Node.entry_mbr entries in
  (* PickSeeds. *)
  let seed1 = ref 0 and seed2 = ref 1 and worst = ref Float.neg_infinity in
  for i = 0 to count - 1 do
    for j = i + 1 to count - 1 do
      let dead =
        Rect.area (Rect.union mbrs.(i) mbrs.(j))
        -. Rect.area mbrs.(i) -. Rect.area mbrs.(j)
      in
      if dead > !worst then begin
        worst := dead;
        seed1 := i;
        seed2 := j
      end
    done
  done;
  let group1 = ref [ entries.(!seed1) ] and group2 = ref [ entries.(!seed2) ] in
  let bb1 = ref mbrs.(!seed1) and bb2 = ref mbrs.(!seed2) in
  let n1 = ref 1 and n2 = ref 1 in
  let remaining = ref [] in
  for i = count - 1 downto 0 do
    if i <> !seed1 && i <> !seed2 then remaining := i :: !remaining
  done;
  let assign_to_1 i =
    group1 := entries.(i) :: !group1;
    bb1 := Rect.union !bb1 mbrs.(i);
    incr n1
  and assign_to_2 i =
    group2 := entries.(i) :: !group2;
    bb2 := Rect.union !bb2 mbrs.(i);
    incr n2
  in
  while !remaining <> [] do
    let left = List.length !remaining in
    (* Min-fill guard: if one group must take everything left, do so. *)
    if !n1 + left <= t.min_fill then begin
      List.iter assign_to_1 !remaining;
      remaining := []
    end
    else if !n2 + left <= t.min_fill then begin
      List.iter assign_to_2 !remaining;
      remaining := []
    end
    else begin
      (* PickNext. *)
      let best = ref (-1) and best_diff = ref Float.neg_infinity in
      List.iter
        (fun i ->
          let d1 = Rect.enlargement !bb1 ~extra:mbrs.(i) in
          let d2 = Rect.enlargement !bb2 ~extra:mbrs.(i) in
          let diff = Float.abs (d1 -. d2) in
          if diff > !best_diff then begin
            best_diff := diff;
            best := i
          end)
        !remaining;
      let i = !best in
      remaining := List.filter (fun j -> j <> i) !remaining;
      let d1 = Rect.enlargement !bb1 ~extra:mbrs.(i) in
      let d2 = Rect.enlargement !bb2 ~extra:mbrs.(i) in
      if
        d1 < d2
        || (d1 = d2 && Rect.area !bb1 <= Rect.area !bb2)
      then assign_to_1 i
      else assign_to_2 i
    end
  done;
  node.Node.entries <- !group1;
  Node.recompute_mbr node;
  Node.make ~level:node.Node.level !group2

(* The R* topological split: choose the axis minimising the summed margins
   of all candidate distributions, then the distribution with least
   overlap (ties: least combined area). Returns the new sibling. *)
let rstar_split t node =
  let entries = Array.of_list node.Node.entries in
  let count = Array.length entries in
  let m = t.min_fill in
  assert (count = t.max_fill + 1);
  let mbrs = Array.map Node.entry_mbr entries in
  let bound lo_idx hi_idx order =
    (* MBR of entries order.(lo_idx .. hi_idx). *)
    let acc = ref mbrs.(order.(lo_idx)) in
    for i = lo_idx + 1 to hi_idx do
      acc := Rect.union !acc mbrs.(order.(i))
    done;
    !acc
  in
  let sorted_orders axis =
    let by_lo = Array.init count (fun i -> i) in
    let by_hi = Array.init count (fun i -> i) in
    Array.sort
      (fun a b -> Float.compare mbrs.(a).Rect.lo.(axis) mbrs.(b).Rect.lo.(axis))
      by_lo;
    Array.sort
      (fun a b -> Float.compare mbrs.(a).Rect.hi.(axis) mbrs.(b).Rect.hi.(axis))
      by_hi;
    [ by_lo; by_hi ]
  in
  (* Axis choice by total margin. *)
  let margin_total axis =
    List.fold_left
      (fun acc order ->
        let sub = ref acc in
        for k = m to count - m do
          sub :=
            !sub
            +. Rect.margin (bound 0 (k - 1) order)
            +. Rect.margin (bound k (count - 1) order)
        done;
        !sub)
      0. (sorted_orders axis)
  in
  let best_axis = ref 0 and best_margin = ref Float.infinity in
  for axis = 0 to t.dims - 1 do
    let margin = margin_total axis in
    if margin < !best_margin then begin
      best_margin := margin;
      best_axis := axis
    end
  done;
  (* Distribution choice by overlap, then combined area. *)
  let best = ref None in
  List.iter
    (fun order ->
      for k = m to count - m do
        let bb1 = bound 0 (k - 1) order and bb2 = bound k (count - 1) order in
        let overlap = Rect.overlap_area bb1 bb2 in
        let area = Rect.area bb1 +. Rect.area bb2 in
        let is_better =
          match !best with
          | None -> true
          | Some (o, a, _, _) -> overlap < o || (overlap = o && area < a)
        in
        if is_better then best := Some (overlap, area, order, k)
      done)
    (sorted_orders !best_axis);
  match !best with
  | None -> assert false
  | Some (_, _, order, k) ->
    let group1 = ref [] and group2 = ref [] in
    for i = count - 1 downto 0 do
      let e = entries.(order.(i)) in
      if i < k then group1 := e :: !group1 else group2 := e :: !group2
    done;
    node.Node.entries <- !group1;
    Node.recompute_mbr node;
    Node.make ~level:node.Node.level !group2

let split t node =
  let sibling =
    match t.variant with
    | Rstar_variant -> rstar_split t node
    | Guttman_variant -> quadratic_split t node
  in
  Simq_obs.Metrics.incr m_splits;
  if Simq_obs.Metrics.on () && node.Node.level = 0 then begin
    Simq_obs.Metrics.observe m_leaf_fanout
      (float_of_int (List.length node.Node.entries));
    Simq_obs.Metrics.observe m_leaf_fanout
      (float_of_int (List.length sibling.Node.entries))
  end;
  sibling

(* OverflowTreatment: forced reinsertion of the entries farthest from the
   node centre — once per level per top-level insertion — else split.
   The Guttman variant has no forced reinsertion: it always splits. *)
let overflow t node ~reinserted ~pending ~is_root =
  if
    t.variant = Guttman_variant
    || is_root
    || Hashtbl.mem reinserted node.Node.level
  then Some (split t node)
  else begin
    Hashtbl.add reinserted node.Node.level ();
    let p =
      max 1 (int_of_float (reinsert_fraction *. float_of_int t.max_fill))
    in
    let centre = Rect.center node.Node.mbr in
    let keyed =
      List.map
        (fun e ->
          (Point.squared_distance centre (Rect.center (Node.entry_mbr e)), e))
        node.Node.entries
    in
    let sorted =
      List.sort (fun (d1, _) (d2, _) -> Float.compare d2 d1) keyed
    in
    let rec take_drop n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take_drop (n - 1) (x :: acc) rest
    in
    let far, keep = take_drop p [] sorted in
    Simq_obs.Metrics.add m_reinserts (List.length far);
    node.Node.entries <- List.map snd keep;
    Node.recompute_mbr node;
    List.iter (fun (_, e) -> Queue.add (e, node.Node.level) pending) far;
    None
  end

let rec insert_rec t node entry ~level ~reinserted ~pending =
  count_access t;
  let e_mbr = Node.entry_mbr entry in
  node.Node.mbr <-
    (if node.Node.entries = [] then e_mbr else Rect.union node.Node.mbr e_mbr);
  if node.Node.level = level then begin
    node.Node.entries <- entry :: node.Node.entries;
    if Node.entry_count node > t.max_fill then
      overflow t node ~reinserted ~pending ~is_root:(node == t.root)
    else None
  end
  else begin
    let child = choose_child t node entry in
    match insert_rec t child entry ~level ~reinserted ~pending with
    | None -> None
    | Some sibling ->
      node.Node.entries <- Node.Child sibling :: node.Node.entries;
      Node.recompute_mbr node;
      if Node.entry_count node > t.max_fill then
        overflow t node ~reinserted ~pending ~is_root:(node == t.root)
      else None
  end

let insert_entry t entry ~level ~reinserted ~pending =
  match insert_rec t t.root entry ~level ~reinserted ~pending with
  | None -> ()
  | Some sibling ->
    let new_root =
      Node.make ~level:(t.root.Node.level + 1)
        [ Node.Child t.root; Node.Child sibling ]
    in
    t.root <- new_root

let drain_pending t ~reinserted ~pending =
  while not (Queue.is_empty pending) do
    let entry, level = Queue.pop pending in
    insert_entry t entry ~level ~reinserted ~pending
  done

let insert t point value =
  if Array.length point <> t.dims then
    invalid_arg "Rstar.insert: dimension mismatch";
  let reinserted = Hashtbl.create 4 in
  let pending = Queue.create () in
  insert_entry t
    (Node.Data { rect = Rect.of_point point; value })
    ~level:0 ~reinserted ~pending;
  drain_pending t ~reinserted ~pending;
  t.size <- t.size + 1

(* --- queries ------------------------------------------------------------ *)

(* The counted variant accumulates node accesses into a local counter
   instead of the tree's cumulative one, so concurrent read-only
   traversals (parallel query batches) never write shared state; the
   caller decides when to credit {!add_accesses}. *)
let fold_region_counted ?budget t ~overlaps ~matches ~init ~f =
  if t.size = 0 then (init, 0)
  else begin
    let accesses = ref 0 in
    let rec go acc node =
      (* Faults and budget charges fire per node visit, before the node
         is examined — a faulted read yields no data and no access
         count. *)
      Simq_fault.Budget.node_access budget;
      incr accesses;
      List.fold_left
        (fun acc entry ->
          match entry with
          | Node.Child c -> if overlaps c.Node.mbr then go acc c else acc
          | Node.Data { rect; value } ->
            if matches rect value then f acc rect value else acc)
        acc node.Node.entries
    in
    let acc = if overlaps t.root.Node.mbr then go init t.root else init in
    (acc, !accesses)
  end

let add_accesses t n =
  t.node_accesses <- t.node_accesses + n;
  Simq_obs.Metrics.add m_node_visits n

let fold_region t ~overlaps ~matches ~init ~f =
  let acc, accesses = fold_region_counted t ~overlaps ~matches ~init ~f in
  add_accesses t accesses;
  acc

(* Data entries match when their rectangle intersects the query; for the
   degenerate rectangles that point-level insertions create this is
   exactly point membership. *)
let search_rect t rect =
  fold_region t
    ~overlaps:(fun r -> Rect.intersects rect r)
    ~matches:(fun r _ -> Rect.intersects rect r)
    ~init:[]
    ~f:(fun acc r v -> (r.Rect.lo, v) :: acc)

let search_region t region =
  fold_region t
    ~overlaps:(fun r -> Region.intersects_rect region r)
    ~matches:(fun r _ -> Region.intersects_rect region r)
    ~init:[]
    ~f:(fun acc r v -> (r.Rect.lo, v) :: acc)

let iter t ~f =
  if t.size > 0 then Node.fold_data (fun () r v -> f r.Rect.lo v) () t.root

let to_list t =
  if t.size = 0 then []
  else Node.fold_data (fun acc r v -> (r.Rect.lo, v) :: acc) [] t.root
