(* Internal node representation shared by the R*-tree modules. Not part
   of the stable API: use Rstar, Bulk, Nn and Join instead. *)

open Simq_geometry

type 'a entry =
  | Child of 'a node
  | Data of { rect : Rect.t; value : 'a }
      (* data entries are rectangles; points are stored as degenerate
         rectangles (lo = hi), the only kind the point-level API
         creates *)

and 'a node = {
  mutable mbr : Rect.t;
  mutable entries : 'a entry list;
  level : int;  (* 0 = leaf; children of a level-l node have level l-1 *)
}

let entry_mbr = function
  | Child n -> n.mbr
  | Data { rect; _ } -> rect

let entry_count node = List.length node.entries
let is_leaf node = node.level = 0

let mbr_of_entries = function
  | [] -> invalid_arg "Node.mbr_of_entries: empty entry list"
  | entries -> Rect.hull entry_mbr entries

let recompute_mbr node = node.mbr <- mbr_of_entries node.entries

let make ~level entries = { mbr = mbr_of_entries entries; entries; level }

let empty_leaf ~dims =
  (* A placeholder MBR; replaced on first insertion. *)
  {
    mbr = Rect.create ~lo:(Array.make dims 0.) ~hi:(Array.make dims 0.);
    entries = [];
    level = 0;
  }

let rec fold_data f acc node =
  List.fold_left
    (fun acc entry ->
      match entry with
      | Child child -> fold_data f acc child
      | Data { rect; value } -> f acc rect value)
    acc node.entries

