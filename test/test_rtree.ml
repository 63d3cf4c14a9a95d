open Simq_geometry
open Simq_rtree

let random_points ~seed ~count ~dims ~range =
  let state = Random.State.make [| seed |] in
  Array.init count (fun idx ->
      (Array.init dims (fun _ -> Random.State.float state range), idx))

let build_by_insertion ?(max_fill = 8) ~dims points =
  let t = Rstar.create ~max_fill ~dims () in
  Array.iter (fun (p, v) -> Rstar.insert t p v) points;
  t

let assert_valid t =
  match Check.violations t with
  | [] -> ()
  | vs ->
    Alcotest.failf "invariant violations: %a"
      (Format.pp_print_list ~pp_sep:Format.pp_print_newline Check.pp_violation)
      vs

let sort_results rs = List.sort compare rs

let brute_force_rect points rect =
  Array.to_list points
  |> List.filter (fun (p, _) -> Rect.contains_point rect p)
  |> sort_results

(* --- heap -------------------------------------------------------------- *)

let test_heap_orders () =
  let h = Simq_pqueue.Heap.create () in
  let input = [ 5.; 1.; 4.; 1.; 3.; 9.; 2.; 6. ] in
  List.iteri (fun idx k -> Simq_pqueue.Heap.push h k idx) input;
  Alcotest.(check int) "size" (List.length input) (Simq_pqueue.Heap.size h);
  let rec drain acc =
    match Simq_pqueue.Heap.pop_min h with
    | None -> List.rev acc
    | Some (k, _) -> drain (k :: acc)
  in
  let drained = drain [] in
  Alcotest.(check (list (float 0.))) "sorted" (List.sort compare input) drained;
  Alcotest.(check bool) "empty after drain" true (Simq_pqueue.Heap.is_empty h)

let test_heap_random () =
  let state = Random.State.make [| 3 |] in
  let h = Simq_pqueue.Heap.create () in
  let keys = List.init 500 (fun _ -> Random.State.float state 1000.) in
  List.iter (fun k -> Simq_pqueue.Heap.push h k ()) keys;
  let rec drain acc =
    match Simq_pqueue.Heap.pop_min h with
    | None -> List.rev acc
    | Some (k, ()) -> drain (k :: acc)
  in
  Alcotest.(check int) "all elements" 500 (List.length (drain []))

(* Pushed all at once, entries pop in the order of a stable sort on
   (key, tie): keys and ties drawn from small sets, so both repeat
   often, and entries equal in both pop first in, first out. The
   state pushed with an entry comes back with it, and [pop_min] drains
   in the same order as [top]/[drop]. *)
let test_heap_stable_order () =
  let module Heap = Simq_pqueue.Heap in
  let state = Random.State.make [| 29 |] in
  let keys = [| 0.; 0.5; 1.; 1.; 2.; infinity |]
  and ties = [| min_int; -1; 0; 0; 3 |] in
  for round = 1 to 200 do
    let size = Random.State.int state 60 in
    let input =
      List.init size (fun i ->
          ( keys.(Random.State.int state (Array.length keys)),
            ties.(Random.State.int state (Array.length ties)),
            i ))
    in
    let expected =
      List.stable_sort
        (fun (k1, t1, _) (k2, t2, _) -> compare (k1, t1) (k2, t2))
        input
    in
    let h = Heap.create () and c = Heap.cell () in
    List.iter
      (fun (k, t, i) ->
        c.Heap.key <- k;
        Heap.push_cell h c ~tie:t ~state:(i mod 3) (k, t, i))
      input;
    let drained =
      if round mod 2 = 0 then
        List.init size (fun _ ->
            let v = Heap.top h and s = Heap.top_state h and k = Heap.top_key h in
            let _, _, i = v in
            Alcotest.(check int) "state travels with the value" (i mod 3) s;
            Alcotest.(check (float 0.)) "top key" (let k', _, _ = v in k') k;
            Heap.drop h;
            v)
      else
        List.init size (fun _ ->
            match Heap.pop_min h with
            | Some (_, v) -> v
            | None -> Alcotest.fail "drained early")
    in
    Alcotest.(check (list (triple (float 0.) int int)))
      "pop order = stable sort on (key, tie)" expected drained;
    Alcotest.(check bool) "empty" true (Heap.is_empty h)
  done

(* Pushes and pops interleaved: every pop takes the least remaining
   entry by (key, tie, insertion), as a sorted-list model does. *)
let test_heap_interleaved () =
  let module Heap = Simq_pqueue.Heap in
  let state = Random.State.make [| 31 |] in
  let h = Heap.create () and c = Heap.cell () in
  let model = ref [] and next = ref 0 in
  let order (k1, t1, i1) (k2, t2, i2) = compare (k1, t1, i1) (k2, t2, i2) in
  for _ = 1 to 5000 do
    if !model = [] || Random.State.int state 3 > 0 then begin
      let k = float_of_int (Random.State.int state 8) /. 2.
      and t = Random.State.int state 4 - 2 in
      let e = (k, t, !next) in
      incr next;
      c.Heap.key <- k;
      Heap.push_cell h c ~tie:t ~state:0 e;
      model := List.merge order [ e ] !model
    end
    else begin
      match !model with
      | least :: rest ->
        Alcotest.(check (triple (float 0.) int int)) "least first" least
          (Heap.top h);
        Heap.drop h;
        model := rest
      | [] -> ()
    end;
    Alcotest.(check int) "size" (List.length !model) (Heap.size h)
  done;
  Alcotest.check_raises "drop on empty" (Invalid_argument "Heap: empty")
    (fun () -> Heap.drop (Heap.create ()))

(* --- insertion & search ------------------------------------------------- *)

let test_empty_tree () =
  let t : int Rstar.t = Rstar.create ~dims:2 () in
  Alcotest.(check int) "size" 0 (Rstar.size t);
  Alcotest.(check int) "height" 1 (Rstar.height t);
  Alcotest.(check (list (pair (array (float 0.)) int))) "search" []
    (Rstar.search_rect t (Rect.create ~lo:[| 0.; 0. |] ~hi:[| 1.; 1. |]));
  assert_valid t

let test_single_point () =
  let t = Rstar.create ~dims:2 () in
  Rstar.insert t [| 1.; 2. |] "a";
  Alcotest.(check int) "size" 1 (Rstar.size t);
  let hits = Rstar.search_rect t (Rect.create ~lo:[| 0.; 0. |] ~hi:[| 3.; 3. |]) in
  Alcotest.(check int) "hit" 1 (List.length hits);
  assert_valid t

let test_insert_many_and_search () =
  let points = random_points ~seed:11 ~count:500 ~dims:3 ~range:100. in
  let t = build_by_insertion ~dims:3 points in
  Alcotest.(check int) "size" 500 (Rstar.size t);
  assert_valid t;
  let state = Random.State.make [| 12 |] in
  for _ = 1 to 25 do
    let lo = Array.init 3 (fun _ -> Random.State.float state 100.) in
    let hi = Array.map (fun v -> v +. Random.State.float state 30.) lo in
    let rect = Rect.create ~lo ~hi in
    let expected = brute_force_rect points rect in
    let actual = sort_results (Rstar.search_rect t rect) in
    Alcotest.(check int)
      "same number of hits"
      (List.length expected) (List.length actual);
    Alcotest.(check bool) "same hits" true (expected = actual)
  done

let test_duplicate_points () =
  let t = Rstar.create ~max_fill:4 ~dims:2 () in
  for i = 1 to 20 do
    Rstar.insert t [| 1.; 1. |] i
  done;
  Alcotest.(check int) "all stored" 20 (Rstar.size t);
  assert_valid t;
  let hits = Rstar.search_rect t (Rect.create ~lo:[| 1.; 1. |] ~hi:[| 1.; 1. |]) in
  Alcotest.(check int) "all found" 20 (List.length hits)

let test_node_accesses_bounded () =
  let points = random_points ~seed:21 ~count:2000 ~dims:2 ~range:1000. in
  let t = build_by_insertion ~max_fill:16 ~dims:2 points in
  Rstar.reset_stats t;
  let rect = Rect.create ~lo:[| 0.; 0. |] ~hi:[| 50.; 50. |] in
  ignore (Rstar.search_rect t rect);
  let accesses = Rstar.search_rect t rect |> fun _ -> Rstar.node_accesses t in
  (* A selective query must touch far fewer nodes than a full scan of
     ~2000/16 leaves plus internals. *)
  Alcotest.(check bool)
    (Printf.sprintf "selective query touches few nodes (%d)" accesses)
    true
    (accesses < 80)

(* --- bulk loading ------------------------------------------------------- *)

let test_bulk_load_matches_insertion () =
  let points = random_points ~seed:51 ~count:1000 ~dims:2 ~range:500. in
  let bulk = Bulk.load ~max_fill:16 ~dims:2 points in
  Alcotest.(check int) "size" 1000 (Rstar.size bulk);
  assert_valid bulk;
  let rect = Rect.create ~lo:[| 100.; 100. |] ~hi:[| 300.; 280. |] in
  let expected = brute_force_rect points rect in
  Alcotest.(check bool) "query equivalence" true
    (expected = sort_results (Rstar.search_rect bulk rect))

let test_bulk_load_empty_and_tiny () =
  let empty = Bulk.load ~dims:2 [||] in
  Alcotest.(check int) "empty" 0 (Rstar.size empty);
  let tiny = Bulk.load ~dims:2 [| ([| 1.; 1. |], "x") |] in
  Alcotest.(check int) "one" 1 (Rstar.size tiny);
  assert_valid tiny

let test_bulk_load_supports_insert_after () =
  let points = random_points ~seed:61 ~count:300 ~dims:2 ~range:100. in
  let t = Bulk.load ~max_fill:8 ~dims:2 points in
  Rstar.insert t [| 1000.; 1000. |] 9999;
  Alcotest.(check int) "size" 301 (Rstar.size t);
  assert_valid t;
  let hits =
    Rstar.search_rect t (Rect.create ~lo:[| 999.; 999. |] ~hi:[| 1001.; 1001. |])
  in
  Alcotest.(check int) "new point findable" 1 (List.length hits)

(* A tree rebuilt from its shape and its entries in traversal order
   equals it node for node, whether STR or insertion built it. *)
let test_pack_rebuilds_from_shape () =
  let entries t =
    let acc = ref [] in
    Rstar.iter t ~f:(fun p v -> acc := (Array.copy p, v) :: !acc);
    Array.of_list (List.rev !acc)
  in
  let same name t =
    let packed =
      Bulk.pack ~max_fill:(Rstar.max_fill t) ~min_fill:(Rstar.min_fill t)
        ~dims:(Rstar.dims t) ~shape:(Bulk.shape t) (entries t)
    in
    Alcotest.(check int) (name ^ ": size") (Rstar.size t) (Rstar.size packed);
    Alcotest.(check bool)
      (name ^ ": same nodes") true
      (Rstar.size t = 0 || Rstar.root t = Rstar.root packed);
    assert_valid packed
  in
  List.iter
    (fun (count, max_fill) ->
      let points = random_points ~seed:count ~count ~dims:3 ~range:50. in
      same
        (Printf.sprintf "STR %d/%d" count max_fill)
        (Bulk.load ~max_fill ~dims:3 points))
    [ (0, 8); (1, 8); (5, 4); (300, 4); (300, 8); (1000, 16) ];
  same "insertion"
    (build_by_insertion ~dims:2
       (random_points ~seed:3 ~count:200 ~dims:2 ~range:100.))

let test_pack_rejects_misfits () =
  let points = random_points ~seed:9 ~count:20 ~dims:2 ~range:10. in
  List.iter
    (fun (name, shape, items) ->
      match Bulk.pack ~max_fill:8 ~dims:2 ~shape items with
      | _ -> Alcotest.failf "%s: packed" name
      | exception Invalid_argument _ -> ())
    [
      ("no level", [||], points);
      ("nodes for no entry", [| [| 1 |] |], [||]);
      ("fan-out above max_fill", [| [| 10; 10 |]; [| 2 |] |], points);
      ("fan-out 0", [| [| 0; 8; 8; 4 |]; [| 4 |] |], points);
      ("leaves short", [| [| 8; 8 |]; [| 2 |] |], points);
      ("two roots", [| [| 8; 8; 4 |] |], points);
      ("root over too few", [| [| 8; 8; 4 |]; [| 2 |] |], points);
    ]

(* --- nearest neighbour --------------------------------------------------- *)

let brute_force_nn points query k =
  Array.to_list points
  |> List.map (fun (p, v) -> (Point.distance query p, p, v))
  |> List.sort (fun (d1, _, _) (d2, _, _) -> Float.compare d1 d2)
  |> List.filteri (fun i _ -> i < k)
  |> List.map (fun (d, p, v) -> (p, v, d))

let test_nn_matches_brute_force () =
  let points = random_points ~seed:71 ~count:800 ~dims:2 ~range:100. in
  let t = build_by_insertion ~max_fill:8 ~dims:2 points in
  let state = Random.State.make [| 72 |] in
  for _ = 1 to 20 do
    let query = Array.init 2 (fun _ -> Random.State.float state 100.) in
    let k = 1 + Random.State.int state 10 in
    let expected = brute_force_nn points query k in
    let actual = Nn.nearest t ~query ~k in
    let dists l = List.map (fun (_, _, d) -> d) l in
    Alcotest.(check (list (float 1e-9))) "distances" (dists expected) (dists actual)
  done

let test_nn_with_transform () =
  (* NN under a transformation equals brute-force NN over transformed
     points (Algorithm 2 for nearest neighbours). *)
  let points = random_points ~seed:81 ~count:400 ~dims:2 ~range:100. in
  let t = build_by_insertion ~max_fill:8 ~dims:2 points in
  let tr = Linear_transform.create ~a:[| -2.; 0.5 |] ~b:[| 10.; -3. |] in
  let query = [| 30.; 40. |] in
  let expected =
    Array.to_list points
    |> List.map (fun (p, v) ->
           (Point.distance query (Linear_transform.apply tr p), p, v))
    |> List.sort (fun (d1, _, _) (d2, _, _) -> Float.compare d1 d2)
    |> List.filteri (fun i _ -> i < 5)
    |> List.map (fun (d, _, v) -> (v, d))
  in
  let actual =
    Nn.nearest ~transform:tr t ~query ~k:5
    |> List.map (fun (_, v, d) -> (v, d))
  in
  List.iter2
    (fun (v1, d1) (v2, d2) ->
      Alcotest.(check int) "same id" v1 v2;
      Alcotest.(check (float 1e-9)) "same distance" d1 d2)
    expected actual

(* Deferred refinement with abandon: entries are queued under their
   euclidean distance and refined to that distance rounded up to a
   0.5 grid, so exact distances tie often while the keys of tied
   entries differ, and a refinement returns a value past [within]
   whenever the rounded distance is beyond it. The answers must be the
   brute-force selection by (rounded distance, id), ties at the k-th
   boundary included, and the nodes expanded must be those of the
   traversal that computes the rounded distance for every entry. *)
let test_nn_deferred_refinement () =
  let points = random_points ~seed:75 ~count:600 ~dims:2 ~range:20. in
  let t = build_by_insertion ~max_fill:8 ~dims:2 points in
  let state = Random.State.make [| 76 |] in
  for _ = 1 to 30 do
    let query = Array.init 2 (fun _ -> Random.State.float state 20.) in
    let k = 1 + Random.State.int state 40 in
    let euclid (r : Rect.t) = Point.distance query r.Rect.lo in
    let rounded r = Float.ceil (2. *. euclid r) /. 2. in
    let expected =
      Array.to_list points
      |> List.map (fun (p, v) -> (Float.ceil (2. *. Point.distance query p) /. 2., v))
      |> List.sort compare
      |> List.filteri (fun i _ -> i < k)
    in
    let run ~key ?refine () =
      let visits = ref 0 in
      let answers =
        Nn.best_first ~visit:(fun () -> incr visits) ?refine t
          ~node_bound:(fun r c -> c.Simq_dsp.Flat.sum <- Rect.mindist query r)
          ~key:(fun r _ c -> c.Simq_dsp.Flat.sum <- key r)
          ~rank:Fun.id ~k
        |> List.map (fun (_, v, d) -> (d, v))
      in
      (answers, !visits)
    in
    let plain, plain_visits = run ~key:rounded () in
    let deferred, deferred_visits =
      run ~key:euclid
        ~refine:(fun r _ c ->
          let within = c.Simq_dsp.Flat.sum in
          let d = rounded r in
          c.Simq_dsp.Flat.sum <- (if d > within then d +. 1. else d))
        ()
    in
    Alcotest.(check (list (pair (float 0.) int))) "plain = brute force"
      expected plain;
    Alcotest.(check (list (pair (float 0.) int))) "deferred = brute force"
      expected deferred;
    Alcotest.(check int) "same nodes" plain_visits deferred_visits
  done

let test_nn_empty_tree () =
  let t : int Rstar.t = Rstar.create ~dims:2 () in
  Alcotest.(check int) "no neighbours" 0
    (List.length (Nn.nearest t ~query:[| 0.; 0. |] ~k:3));
  Alcotest.check_raises "k must be positive"
    (Invalid_argument "Nn.best_first: k must be positive") (fun () ->
      ignore (Nn.nearest t ~query:[| 0.; 0. |] ~k:0))

let test_nn_k_larger_than_tree () =
  let points = random_points ~seed:91 ~count:5 ~dims:2 ~range:10. in
  let t = build_by_insertion ~dims:2 points in
  Alcotest.(check int) "returns all" 5
    (List.length (Nn.nearest t ~query:[| 0.; 0. |] ~k:50))

(* --- region search with circular dimension -------------------------------- *)

let test_region_search_circular () =
  (* Points on a circle parameterised by angle; a circular region across
     the seam must find the points on both sides. *)
  let t = Rstar.create ~max_fill:4 ~dims:2 () in
  let angles = [ -3.1; -3.0; -1.5; 0.0; 1.5; 3.0; 3.1 ] in
  List.iteri (fun idx a -> Rstar.insert t [| 1.0; a |] idx) angles;
  let region =
    [|
      Region.linear ~lo:0.5 ~hi:1.5;
      Region.circular ~lo:(Float.pi -. 0.3) ~hi:(Float.pi +. 0.3);
    |]
  in
  let hits = Rstar.search_region t region in
  (* Angles within 0.3 of pi (mod 2pi): 3.0, 3.1, -3.1, -3.0. *)
  Alcotest.(check int) "seam-spanning hits" 4 (List.length hits)

(* --- rectangle data entries -------------------------------------------------- *)

let test_rect_data_entries () =
  (* Load rectangles directly; range search returns entries whose
     rectangles intersect the query window. *)
  let t =
    Bulk.load_rects ~max_fill:4 ~dims:2
      [|
        (Rect.create ~lo:[| 0.; 0. |] ~hi:[| 2.; 2. |], "a");
        (Rect.create ~lo:[| 5.; 5. |] ~hi:[| 7.; 9. |], "b");
        (Rect.create ~lo:[| 1.; 1. |] ~hi:[| 6.; 6. |], "c");
      |]
  in
  Alcotest.(check int) "size" 3 (Rstar.size t);
  assert_valid t;
  let hits rect =
    Rstar.search_rect t rect |> List.map snd |> List.sort compare
  in
  Alcotest.(check (list string)) "window over the middle" [ "a"; "c" ]
    (hits (Rect.create ~lo:[| 1.5; 1.5 |] ~hi:[| 2.5; 2.5 |]));
  Alcotest.(check (list string)) "window over everything" [ "a"; "b"; "c" ]
    (hits (Rect.create ~lo:[| 0.; 0. |] ~hi:[| 10.; 10. |]));
  Alcotest.(check (list string)) "disjoint window" []
    (hits (Rect.create ~lo:[| 20.; 20. |] ~hi:[| 21.; 21. |]))

let test_rect_data_bulk_and_fold () =
  let state = Random.State.make [| 131 |] in
  let rects =
    Array.init 200 (fun i ->
        let x = Random.State.float state 100. in
        let y = Random.State.float state 100. in
        ( Rect.create ~lo:[| x; y |]
            ~hi:[| x +. Random.State.float state 5.; y +. Random.State.float state 5. |],
          i ))
  in
  let t = Bulk.load_rects ~max_fill:8 ~dims:2 rects in
  Alcotest.(check int) "size" 200 (Rstar.size t);
  assert_valid t;
  let window = Rect.create ~lo:[| 20.; 20. |] ~hi:[| 50.; 60. |] in
  let expected =
    Array.to_list rects
    |> List.filter_map (fun (r, v) -> if Rect.intersects window r then Some v else None)
    |> List.sort compare
  in
  let actual, accesses =
    Rstar.fold_region_counted t
      ~overlaps:(fun r -> Rect.intersects window r)
      ~matches:(fun r _ -> Rect.intersects window r)
      ~init:[]
      ~f:(fun acc _ v -> v :: acc)
  in
  Alcotest.(check (list int)) "intersection semantics" expected
    (List.sort compare actual);
  Alcotest.(check bool) "nodes counted" true (accesses > 0)

(* --- Guttman variant ------------------------------------------------------ *)

let test_guttman_search_equivalence () =
  let points = random_points ~seed:121 ~count:600 ~dims:2 ~range:200. in
  let t = Rstar.create ~variant:Rstar.Guttman_variant ~max_fill:8 ~dims:2 () in
  Array.iter (fun (p, v) -> Rstar.insert t p v) points;
  Alcotest.(check int) "size" 600 (Rstar.size t);
  assert_valid t;
  let state = Random.State.make [| 122 |] in
  for _ = 1 to 15 do
    let lo = Array.init 2 (fun _ -> Random.State.float state 200.) in
    let hi = Array.map (fun v -> v +. Random.State.float state 50.) lo in
    let rect = Rect.create ~lo ~hi in
    Alcotest.(check bool) "brute force equivalence" true
      (brute_force_rect points rect = sort_results (Rstar.search_rect t rect))
  done

let test_variants_same_answers () =
  (* Different trees, identical query results. *)
  let points = random_points ~seed:124 ~count:400 ~dims:3 ~range:100. in
  let build variant =
    let t = Rstar.create ~variant ~max_fill:8 ~dims:3 () in
    Array.iter (fun (p, v) -> Rstar.insert t p v) points;
    t
  in
  let rstar = build Rstar.Rstar_variant in
  let guttman = build Rstar.Guttman_variant in
  let rect = Rect.create ~lo:[| 10.; 10.; 10. |] ~hi:[| 60.; 70.; 90. |] in
  Alcotest.(check bool) "same range results" true
    (sort_results (Rstar.search_rect rstar rect)
    = sort_results (Rstar.search_rect guttman rect));
  let q = [| 50.; 50.; 50. |] in
  let dists t = Nn.nearest t ~query:q ~k:7 |> List.map (fun (_, _, d) -> d) in
  Alcotest.(check (list (float 1e-9))) "same nn distances" (dists rstar)
    (dists guttman)

(* --- property-based ------------------------------------------------------ *)

let arb_workload =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 300 in
      let* seed = int_range 0 10_000 in
      let* max_fill = int_range 4 16 in
      return (n, seed, max_fill))
  in
  QCheck.make
    ~print:(fun (n, s, m) -> Printf.sprintf "n=%d seed=%d max_fill=%d" n s m)
    gen

let prop_insert_search_equivalence =
  QCheck.Test.make ~name:"range query = brute force after inserts" ~count:40
    arb_workload (fun (n, seed, max_fill) ->
      let points = random_points ~seed ~count:n ~dims:2 ~range:100. in
      let t = build_by_insertion ~max_fill ~dims:2 points in
      let rect = Rect.create ~lo:[| 20.; 20. |] ~hi:[| 70.; 60. |] in
      Check.is_valid t
      && brute_force_rect points rect = sort_results (Rstar.search_rect t rect))

let prop_guttman_invariants =
  QCheck.Test.make ~name:"guttman variant keeps invariants" ~count:25
    arb_workload (fun (n, seed, max_fill) ->
      let points = random_points ~seed ~count:n ~dims:2 ~range:100. in
      let t =
        Rstar.create ~variant:Rstar.Guttman_variant ~max_fill ~dims:2 ()
      in
      Array.iter (fun (p, v) -> Rstar.insert t p v) points;
      Check.is_valid t)

let prop_bulk_load_equivalence =
  QCheck.Test.make ~name:"bulk load answers like brute force" ~count:30
    arb_workload (fun (n, seed, max_fill) ->
      let points = random_points ~seed ~count:n ~dims:2 ~range:100. in
      let t = Bulk.load ~max_fill ~dims:2 points in
      let rect = Rect.create ~lo:[| 10.; 30. |] ~hi:[| 80.; 90. |] in
      Check.is_valid t
      && brute_force_rect points rect = sort_results (Rstar.search_rect t rect))

let prop_nn_first_equals_min =
  QCheck.Test.make ~name:"1-NN returns the closest point" ~count:40
    arb_workload (fun (n, seed, max_fill) ->
      let points = random_points ~seed ~count:n ~dims:2 ~range:100. in
      let t = build_by_insertion ~max_fill ~dims:2 points in
      let query = [| 50.; 50. |] in
      match Nn.nearest t ~query ~k:1 with
      | [ (_, _, d) ] ->
        let best =
          Array.fold_left
            (fun acc (p, _) -> Float.min acc (Point.distance query p))
            Float.infinity points
        in
        Float.abs (d -. best) <= 1e-9
      | _ -> false)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_insert_search_equivalence;
      prop_guttman_invariants;
      prop_bulk_load_equivalence;
      prop_nn_first_equals_min;
    ]

let () =
  Alcotest.run "simq_rtree"
    [
      ( "heap",
        [
          Alcotest.test_case "orders" `Quick test_heap_orders;
          Alcotest.test_case "random" `Quick test_heap_random;
          Alcotest.test_case "pop order is a stable sort on (key, tie)" `Quick
            test_heap_stable_order;
          Alcotest.test_case "interleaved pushes and pops" `Quick
            test_heap_interleaved;
        ] );
      ( "insert/search",
        [
          Alcotest.test_case "empty tree" `Quick test_empty_tree;
          Alcotest.test_case "single point" `Quick test_single_point;
          Alcotest.test_case "many points, brute-force equivalence" `Quick
            test_insert_many_and_search;
          Alcotest.test_case "duplicate points" `Quick test_duplicate_points;
          Alcotest.test_case "node accesses bounded" `Quick
            test_node_accesses_bounded;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "matches insertion" `Quick
            test_bulk_load_matches_insertion;
          Alcotest.test_case "empty and tiny" `Quick test_bulk_load_empty_and_tiny;
          Alcotest.test_case "insert after bulk" `Quick
            test_bulk_load_supports_insert_after;
          Alcotest.test_case "pack rebuilds from the shape" `Quick
            test_pack_rebuilds_from_shape;
          Alcotest.test_case "pack rejects a shape that does not fit" `Quick
            test_pack_rejects_misfits;
        ] );
      ( "nearest neighbour",
        [
          Alcotest.test_case "matches brute force" `Quick
            test_nn_matches_brute_force;
          Alcotest.test_case "with transformation" `Quick test_nn_with_transform;
          Alcotest.test_case "deferred refinement keeps ties" `Quick
            test_nn_deferred_refinement;
          Alcotest.test_case "empty tree" `Quick test_nn_empty_tree;
          Alcotest.test_case "k larger than tree" `Quick test_nn_k_larger_than_tree;
        ] );
      ( "rect data",
        [
          Alcotest.test_case "load_rects and search" `Quick
            test_rect_data_entries;
          Alcotest.test_case "bulk load_rects and fold" `Quick
            test_rect_data_bulk_and_fold;
        ] );
      ( "guttman variant",
        [
          Alcotest.test_case "search equivalence" `Quick
            test_guttman_search_equivalence;
          Alcotest.test_case "variants agree" `Quick test_variants_same_answers;
        ] );
      ( "region",
        [
          Alcotest.test_case "circular dimension" `Quick
            test_region_search_circular;
        ] );
      ("properties", properties);
    ]
