open Simq_geometry

type 'a item =
  | Node_item of 'a Node.node
  | Data_item of Rect.t * 'a
  | Deferred_item of Rect.t * 'a

(* Equal-key heap order: nodes first (so every tied candidate is
   discovered before any tied data entry is emitted), then data entries
   by their caller-supplied rank — making the k-th-boundary tie set
   canonical instead of heap-insertion-order dependent. *)
let node_tie = min_int

let nearest_custom ?visit ?data_rank ?point_bound ?refine t ~rect_bound
    ~point_dist ~k =
  if k <= 0 then invalid_arg "Nn.nearest_custom: k must be positive";
  if Rstar.size t = 0 then []
  else begin
    let heap = Simq_pqueue.Heap.create () in
    let rank = match data_rank with None -> fun _ -> 0 | Some f -> f in
    let refine =
      match refine with
      | Some f -> f
      | None -> fun r v ~within:_ -> point_dist r v
    in
    (* The k best refined distances so far, ascending, padded with
       infinity; [within] is the last of them. When the tree holds
       fewer than k entries, the last slot fills only once every entry
       is refined, so nothing is ever skipped. *)
    let best = Array.make (Int.min k (Rstar.size t)) infinity in
    let last = Array.length best - 1 in
    let beyond d = d > best.(last) in
    let note d =
      let i = ref last in
      if d < best.(!i) then begin
        while !i > 0 && best.(!i - 1) > d do
          best.(!i) <- best.(!i - 1);
          decr i
        done;
        best.(!i) <- d
      end
    in
    Simq_pqueue.Heap.push_tie heap
      (rect_bound (Rstar.root t).Node.mbr)
      node_tie
      (Node_item (Rstar.root t));
    let results = ref [] in
    let found = ref 0 in
    let rec drain () =
      if !found < k then
        match Simq_pqueue.Heap.pop_min heap with
        | None -> ()
        | Some (d, Data_item (r, v)) ->
          results := (r.Rect.lo, v, d) :: !results;
          incr found;
          drain ()
        | Some (_, Deferred_item (r, v)) ->
          (* Deferred refinement (the multi-step pattern): a data entry
             queued under its cheap lower bound gets its exact distance
             only when it surfaces, then re-queues. Since the bound
             never overestimates, everything still pending lies at
             least as far, so emitted entries are exact. An entry
             provably beyond the k-th best refined distance can never
             be emitted (the k entries at or below it all pop first),
             so its refinement may stop early and it is dropped. *)
          let d = refine r v ~within:best.(last) in
          if not (beyond d) then begin
            note d;
            Simq_pqueue.Heap.push_tie heap d (rank v) (Data_item (r, v))
          end;
          drain ()
        | Some (_, Node_item node) ->
          (match visit with None -> () | Some f -> f ());
          Rstar.count_access t;
          List.iter
            (fun entry ->
              match entry with
              | Node.Child c ->
                Simq_pqueue.Heap.push_tie heap (rect_bound c.Node.mbr)
                  node_tie (Node_item c)
              | Node.Data { rect; value } -> (
                match point_bound with
                | None ->
                  Simq_pqueue.Heap.push_tie heap (point_dist rect value)
                    (rank value)
                    (Data_item (rect, value))
                | Some bound ->
                  let b = bound rect value in
                  if not (beyond b) then
                    Simq_pqueue.Heap.push_tie heap b (rank value)
                      (Deferred_item (rect, value))))
            node.Node.entries;
          drain ()
    in
    drain ();
    List.rev !results
  end

let nearest ?transform t ~query ~k =
  let map_rect, map_point =
    match transform with
    | None -> ((fun r -> r), fun p -> p)
    | Some tr ->
      (Linear_transform.apply_rect tr, Linear_transform.apply tr)
  in
  nearest_custom t
    ~rect_bound:(fun r -> Rect.mindist query (map_rect r))
    ~point_dist:(fun r _ -> Point.distance query (map_point r.Rect.lo))
    ~k
