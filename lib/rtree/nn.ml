open Simq_geometry
module Heap = Simq_pqueue.Heap
module Flat = Simq_dsp.Flat

(* What a queued tree entry stands for. A [Child] is always a node; a
   [Data] entry is queued either under a lower bound (keyed, still to
   be refined) or under its distance (refined, ready to emit). *)
let node = 0
let keyed = 1
let refined = 2

(* Equal-key heap order: nodes first (so every tied candidate is
   discovered before any tied data entry is emitted), then data entries
   by their caller-supplied rank — making the k-th-boundary tie set
   canonical instead of heap-insertion-order dependent. *)
let node_tie = min_int

let best_first ?visit ?refine ?(within = infinity) t ~node_bound ~key ~rank
    ~k =
  if k <= 0 then invalid_arg "Nn.best_first: k must be positive";
  if Rstar.size t = 0 then []
  else begin
    let heap = Heap.create () in
    (* [cell] receives the callers' bounds and distances; [key_cell] hands
       them to the queue. Copying one into the other boxes nothing. *)
    let cell = Flat.acc () and key_cell = Heap.cell () in
    let push ~tie ~state e =
      key_cell.Heap.key <- cell.Flat.sum;
      Heap.push_cell heap key_cell ~tie ~state e
    in
    (* The k best refined distances so far, ascending, padded with the
       caller's [within]; the bound is the last of them. When the tree
       holds fewer than k entries, the last slot fills only once every
       entry is refined, so nothing within [within] is ever skipped. *)
    let best = Array.make (Int.min k (Rstar.size t)) within in
    let last = Array.length best - 1 in
    (* A node or entry whose bound lies beyond the last slot can never
       be emitted: either it is beyond [within], or the k refined
       entries at or below the slot all pop first. Nothing popped can
       lie beyond it, so the queue is filtered at push alone. The
       tree's own entries are queued: nothing is boxed per push. *)
    let push_within ~tie ~state e =
      if not (cell.Flat.sum > best.(last)) then push ~tie ~state e
    in
    let rec push_entries = function
      | [] -> ()
      | (Node.Child c as e) :: rest ->
        node_bound c.Node.mbr cell;
        push_within ~tie:node_tie ~state:node e;
        push_entries rest
      | (Node.Data { rect; value } as e) :: rest ->
        key rect value cell;
        push_within ~tie:(rank value)
          ~state:(match refine with None -> refined | Some _ -> keyed)
          e;
        push_entries rest
    in
    let root = Rstar.root t in
    node_bound root.Node.mbr cell;
    push_within ~tie:node_tie ~state:node (Node.Child root);
    let results = ref [] in
    let found = ref 0 in
    while !found < k && not (Heap.is_empty heap) do
      let state = Heap.top_state heap and entry = Heap.top heap in
      match entry with
      | Node.Data { rect; value } when state = refined ->
        results := (rect.Rect.lo, value, Heap.top_key heap) :: !results;
        Heap.drop heap;
        incr found
      | Node.Data { rect; value } -> (
        Heap.drop heap;
        (* Deferred refinement (the multi-step pattern): a data entry
           queued under its cheap lower bound gets its exact distance
           only when it surfaces, then re-queues. Since the bound never
           overestimates, everything still pending lies at least as
           far, so emitted entries are exact. An entry provably beyond
           [within] is dropped, so its refinement may stop early. *)
        match refine with
        | None -> assert false
        | Some refine ->
          cell.Flat.sum <- best.(last);
          refine rect value cell;
          if not (cell.Flat.sum > best.(last)) then begin
            let i = ref last in
            if cell.Flat.sum < best.(!i) then begin
              while !i > 0 && best.(!i - 1) > cell.Flat.sum do
                best.(!i) <- best.(!i - 1);
                decr i
              done;
              best.(!i) <- cell.Flat.sum
            end;
            push ~tie:(rank value) ~state:refined entry
          end)
      | Node.Child n ->
        Heap.drop heap;
        (match visit with None -> () | Some f -> f ());
        Rstar.count_access t;
        push_entries n.Node.entries
    done;
    List.rev !results
  end

let nearest ?transform t ~query ~k =
  let map_rect, map_point =
    match transform with
    | None -> ((fun r -> r), fun p -> p)
    | Some tr ->
      (Linear_transform.apply_rect tr, Linear_transform.apply tr)
  in
  best_first t
    ~node_bound:(fun r c -> c.Flat.sum <- Rect.mindist query (map_rect r))
    ~key:(fun r _ c -> c.Flat.sum <- Point.distance query (map_point r.Rect.lo))
    ~rank:(fun _ -> 0)
    ~k
