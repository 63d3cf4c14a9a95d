(* STR: sort by the first dimension, cut into vertical slabs, sort each
   slab by the next dimension, recurse. Groups are split evenly rather
   than greedily so that every node ends up with at least half the
   capacity — which satisfies min_fill because create enforces
   min_fill <= max_fill / 2. *)

(* Split [arr] into [count] contiguous chunks whose sizes differ by at
   most one. *)
let even_chunks count arr =
  let n = Array.length arr in
  let base = n / count and rem = n mod count in
  let rec go idx pos acc =
    if idx = count then List.rev acc
    else begin
      let len = base + if idx < rem then 1 else 0 in
      go (idx + 1) (pos + len) (Array.sub arr pos len :: acc)
    end
  in
  go 0 0 []

let rec tile ~dims ~axis ~capacity items =
  let n = Array.length items in
  if n <= capacity then [ items ]
  else begin
    Array.sort
      (fun ((p1 : float array), _) (p2, _) -> Float.compare p1.(axis) p2.(axis))
      items;
    let groups_needed = (n + capacity - 1) / capacity in
    if axis = dims - 1 then even_chunks groups_needed items
    else begin
      let remaining_dims = dims - axis in
      let slab_count =
        min groups_needed
          (int_of_float
             (Float.ceil
                (float_of_int groups_needed
                ** (1. /. float_of_int remaining_dims))))
      in
      List.concat_map
        (tile ~dims ~axis:(axis + 1) ~capacity)
        (even_chunks (max 1 slab_count) items)
    end
  end

let observe_leaves leaves =
  if Simq_obs.Metrics.on () then
    List.iter
      (fun leaf ->
        Simq_obs.Metrics.observe Rstar.m_leaf_fanout
          (float_of_int (List.length leaf.Node.entries)))
      leaves

(* Shared core: items carry a sort-key point and a ready-made leaf
   entry. *)
let load_entries ?(max_fill = 32) ?min_fill ~dims keyed =
  let t = Rstar.create ?min_fill ~max_fill ~dims () in
  let n = Array.length keyed in
  if n = 0 then t
  else begin
    let capacity = max_fill in
    let leaves =
      tile ~dims ~axis:0 ~capacity keyed
      |> List.map (fun group ->
             Node.make ~level:0 (Array.to_list (Array.map snd group)))
    in
    observe_leaves leaves;
    let rec build level nodes =
      match nodes with
      | [ only ] -> only
      | _ ->
        let keyed =
          Array.of_list
            (List.map
               (fun n -> (Simq_geometry.Rect.center n.Node.mbr, Node.Child n))
               nodes)
        in
        let groups = tile ~dims ~axis:0 ~capacity keyed in
        build (level + 1)
          (List.map
             (fun group -> Node.make ~level (Array.to_list (Array.map snd group)))
             groups)
    in
    let root = build 1 leaves in
    Rstar.set_root t root ~size:n;
    t
  end

let check_dims name ~dims items =
  Array.iter
    (fun (p, _) ->
      if Array.length p <> dims then
        invalid_arg (name ^ ": dimension mismatch"))
    items

(* The point is its rectangle's two corners, shared, not copied. *)
let point_entry (p, v) =
  Node.Data { rect = Simq_geometry.Rect.point p; value = v }

let load ?max_fill ?min_fill ~dims items =
  check_dims "Bulk.load" ~dims items;
  load_entries ?max_fill ?min_fill ~dims
    (Array.map (fun ((p, _) as item) -> (p, point_entry item)) items)

let load_rects ?max_fill ?min_fill ~dims items =
  Array.iter
    (fun ((r : Simq_geometry.Rect.t), _) ->
      if Simq_geometry.Rect.dims r <> dims then
        invalid_arg "Bulk.load_rects: dimension mismatch")
    items;
  load_entries ?max_fill ?min_fill ~dims
    (Array.map
       (fun (r, v) ->
         (Simq_geometry.Rect.center r, Node.Data { rect = r; value = v }))
       items)

(* Pre-order, so each level lists its nodes left to right and the
   children of consecutive nodes are consecutive runs of the level
   below; the leaves' runs are the data entries in {!Rstar.iter}
   order. *)
let shape t =
  if Rstar.size t = 0 then [||]
  else begin
    let root = Rstar.root t in
    let levels = Array.make (root.Node.level + 1) [] in
    let rec walk (node : _ Node.node) =
      levels.(node.Node.level) <-
        Node.entry_count node :: levels.(node.Node.level);
      List.iter
        (function Node.Child c -> walk c | Node.Data _ -> ())
        node.Node.entries
    in
    walk root;
    Array.map (fun l -> Array.of_list (List.rev l)) levels
  end

let pack ?max_fill ?min_fill ~dims ~shape items =
  check_dims "Bulk.pack" ~dims items;
  let t = Rstar.create ?min_fill ?max_fill ~dims () in
  let bad why = invalid_arg ("Bulk.pack: " ^ why) in
  (* Node [j] of a level takes the next [fanouts.(j)] entries of the
     level below. *)
  let group ~level fanouts below =
    let pos = ref 0 in
    let nodes =
      Array.map
        (fun f ->
          if f < 1 || f > Rstar.max_fill t || !pos + f > Array.length below
          then bad "a fan-out does not fit the level below";
          let entries = ref [] in
          for i = !pos + f - 1 downto !pos do
            entries := below.(i) :: !entries
          done;
          pos := !pos + f;
          let entries = !entries in
          Node.make ~level entries)
        fanouts
    in
    if !pos <> Array.length below then
      bad "the fan-outs do not cover the level below";
    Array.to_list nodes
  in
  let n = Array.length items in
  if n = 0 then (if shape <> [||] then bad "nodes for no entry"; t)
  else begin
    if shape = [||] then bad "no level for the entries";
    let leaves = group ~level:0 shape.(0) (Array.map point_entry items) in
    observe_leaves leaves;
    let rec up level nodes =
      if level = Array.length shape then nodes
      else
        up (level + 1)
          (group ~level shape.(level)
             (Array.of_list (List.map (fun c -> Node.Child c) nodes)))
    in
    match up 1 leaves with
    | [ root ] ->
      Rstar.set_root t root ~size:n;
      t
    | _ -> bad "the top level is not one root"
  end
