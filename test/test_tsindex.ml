open Simq_tsindex
module Series = Simq_series.Series
module Generator = Simq_series.Generator
module Coords = Simq_geometry.Coords

let dataset_of ~seed ~count ~n =
  Dataset.of_series ~name:"test"
    (Generator.random_walks ~seed ~count ~n)

let ids_of answers = List.map (fun ((e : Dataset.entry), _) -> e.Dataset.id) answers

let check_same_answers msg expected actual =
  Alcotest.(check (list int)) (msg ^ ": ids") (ids_of expected) (ids_of actual);
  List.iter2
    (fun (_, d1) (_, d2) ->
      Alcotest.(check (float 1e-6)) (msg ^ ": distance") d1 d2)
    expected actual

let query_for dataset spec seed =
  (* A query built by perturbing one of the data series keeps answer sets
     non-trivial. *)
  let entries = Dataset.entries dataset in
  let base = entries.(seed mod Array.length entries) in
  let state = Random.State.make [| seed |] in
  let perturbed =
    Array.map
      (fun v -> v +. Random.State.float state 2. -. 1.)
      base.Dataset.series
  in
  let n = Dataset.series_length dataset in
  match spec with
  | Spec.Warp m -> Simq_series.Warp.expand m perturbed
  | _ ->
    assert (Spec.output_length spec ~n = n);
    perturbed

let all_specs =
  [
    Spec.Identity;
    Spec.Moving_average 3;
    Spec.Moving_average 8;
    Spec.Weighted_ma (Simq_dsp.Window.ascending 5);
    Spec.Reverse;
    Spec.Warp 2;
  ]

(* --- Spec ------------------------------------------------------------------ *)

let test_spec_stretch_predicts_spectrum () =
  (* For every spec, multiplying the spectrum by the stretch vector must
     equal the DFT of the time-domain transformation (prefix n). *)
  let s = Simq_series.Normal_form.normalise
      (Generator.random_walk (Random.State.make [| 2 |]) 32) in
  let spectrum = Simq_dsp.Fft.fft_real s in
  List.iter
    (fun spec ->
      let n = 32 in
      let stretch = Spec.stretch spec ~n in
      let predicted = Simq_dsp.Cpx.mul_arrays stretch spectrum in
      let actual = Simq_dsp.Fft.fft_real (Spec.apply_series spec s) in
      let actual_prefix = Array.sub actual 0 n in
      Alcotest.(check bool)
        (Spec.name spec ^ " stretch = DFT of time-domain op")
        true
        (Simq_dsp.Cpx.close_arrays ~eps:1e-6 predicted actual_prefix))
    all_specs

let test_spec_output_length () =
  Alcotest.(check int) "identity" 10 (Spec.output_length Spec.Identity ~n:10);
  Alcotest.(check int) "warp" 30 (Spec.output_length (Spec.Warp 3) ~n:10)

(* --- Dataset ----------------------------------------------------------------- *)

let test_dataset_preparation () =
  let d = dataset_of ~seed:3 ~count:10 ~n:64 in
  Alcotest.(check int) "cardinality" 10 (Dataset.cardinality d);
  Alcotest.(check int) "length" 64 (Dataset.series_length d);
  Array.iter
    (fun (e : Dataset.entry) ->
      Alcotest.(check bool) "normal form" true
        (Simq_series.Normal_form.is_normal e.Dataset.normal);
      Alcotest.(check (float 1e-9)) "coefficient 0 is zero" 0.
        (Simq_dsp.Cpx.abs (Simq_dsp.Flat.coeff e.Dataset.spectrum 0)))
    (Dataset.entries d)

(* The boxed formula every frequency-domain distance used before the
   flat kernel, kept here as the reference: [Cpx.mul] by the stretch,
   [Cpx.sub], then [acc +. (re*re +. im*im)] in ascending coefficient
   order with the abandon test after each coefficient. Returns the sum,
   whether it abandoned, and the coefficients touched. *)
let boxed_sq_dist ~stretch ~limit x y =
  let module Cpx = Simq_dsp.Cpx in
  let acc = ref 0. and f = ref 0 and alive = ref true in
  while !alive && !f < Array.length x do
    let sx =
      match stretch with None -> x.(!f) | Some s -> Cpx.mul s.(!f) x.(!f)
    in
    let z = Cpx.sub sx y.(!f) in
    let re = Cpx.re z and im = Cpx.im z in
    acc := !acc +. ((re *. re) +. (im *. im));
    incr f;
    if !acc > limit then alive := false
  done;
  (!acc, not !alive, !f)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_flat_kernel_matches_boxed () =
  let module Flat = Simq_dsp.Flat in
  let n = 64 in
  let entries = Dataset.entries (dataset_of ~seed:12 ~count:12 ~n) in
  let boxed =
    Array.map
      (fun (e : Dataset.entry) -> Simq_dsp.Fft.fft_real e.Dataset.normal)
      entries
  in
  (* Every stretch of the spec mix ([Queries.spec_mix]): identity, rev,
     mavg 2-7 and wma 2-7, plus no stretch at all. *)
  let specs =
    [ Spec.Identity; Spec.Reverse ]
    @ List.init 6 (fun i -> Spec.Moving_average (i + 2))
    @ List.init 6 (fun i ->
          Spec.Weighted_ma (Simq_dsp.Window.ascending (i + 2)))
  in
  let abandons = ref 0 in
  List.iter
    (fun stretch ->
      let flat_stretch = Option.map Flat.of_cpx stretch in
      let check i j limit =
        let sum, abandoned, touched =
          boxed_sq_dist ~stretch ~limit boxed.(i) boxed.(j)
        in
        let acc = Flat.acc () in
        let flat_touched =
          Flat.sq_dist ~stretch:flat_stretch ~limit ~lo:0 ~hi:n
            entries.(i).Dataset.spectrum 0 entries.(j).Dataset.spectrum 0 acc
        in
        if abandoned then incr abandons;
        Alcotest.(check bool) "sum bit-identical" true
          (same_bits sum acc.Flat.sum);
        Alcotest.(check bool) "abandon decision" abandoned
          (acc.Flat.sum > limit);
        Alcotest.(check int) "coefficients touched" touched flat_touched
      in
      Array.iteri
        (fun i _ ->
          Array.iteri
            (fun j _ ->
              let full, _, _ =
                boxed_sq_dist ~stretch ~limit:infinity boxed.(i) boxed.(j)
              in
              List.iter (check i j) [ infinity; full /. 4.; full; full *. 2. ])
            boxed)
        boxed)
    (None :: List.map (fun spec -> Some (Spec.stretch spec ~n)) specs);
  Alcotest.(check bool) "the tight limit abandons" true (!abandons > 0);
  (* The kernel allocates nothing per comparison: only the two
     [Gc.minor_words] results are boxed across a thousand calls. *)
  let x = entries.(0).Dataset.spectrum and y = entries.(1).Dataset.spectrum in
  let stretch = Some (Flat.of_cpx (Spec.stretch (Spec.Moving_average 4) ~n)) in
  let acc = Flat.acc () in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Flat.sq_dist ~stretch ~limit:infinity ~lo:0 ~hi:n x 0 y 0 acc)
  done;
  Alcotest.(check bool) "no allocation per comparison" true
    (Gc.minor_words () -. before < 16.)

(* [Flat.dist_within], the refinement step of NN: a result at most
   [within] is the exact distance, bit for bit, and a larger one is a
   lower bound. The hand-built case reaches the rounding branch:
   [sqrt 3 *. sqrt 3] rounds below 3, so the sum passes the limit
   [within²] at coefficient 1 while its root is [within] itself, and
   the tail must be resumed right after coefficient 1. *)
let test_dist_within () =
  let module Flat = Simq_dsp.Flat in
  let x = [| 1.; 1.; 1.; 0.; 0.; 0.; 0.; 0. |] and y = Array.make 8 0. in
  let within = sqrt 3. in
  Alcotest.(check bool) "the limit rounds below the sum" true
    (within *. within < 3.);
  List.iter
    (fun (lo, head_sum) ->
      let acc = Flat.acc () in
      acc.Flat.sum <- head_sum;
      let d = Flat.dist_within ~stretch:None ~within ~lo ~hi:4 x 0 y 0 acc in
      Alcotest.(check bool)
        (Printf.sprintf "rounding case from %d: exact" lo)
        true (same_bits d within))
    [ (0, 0.); (1, 2.) ];
  let n = 32 in
  let entries = Dataset.entries (dataset_of ~seed:14 ~count:8 ~n) in
  let stretch = Some (Flat.of_cpx (Spec.stretch (Spec.Moving_average 3) ~n)) in
  let checked = ref 0 in
  Array.iter
    (fun (a : Dataset.entry) ->
      Array.iter
        (fun (b : Dataset.entry) ->
          let acc = Flat.acc () in
          ignore
            (Flat.sq_dist ~stretch ~limit:infinity ~lo:0 ~hi:n
               a.Dataset.spectrum 0 b.Dataset.spectrum 0 acc);
          let exact = sqrt acc.Flat.sum in
          List.iter
            (fun within ->
              let acc = Flat.acc () in
              let head =
                Flat.sq_dist ~stretch ~limit:infinity ~lo:0 ~hi:4
                  a.Dataset.spectrum 0 b.Dataset.spectrum 0 acc
              in
              let d =
                Flat.dist_within ~stretch ~within ~lo:head ~hi:n
                  a.Dataset.spectrum 0 b.Dataset.spectrum 0 acc
              in
              incr checked;
              if d <= within then
                Alcotest.(check bool) "exact when within" true
                  (same_bits d exact)
              else
                Alcotest.(check bool) "a lower bound beyond" true
                  (d <= exact && exact > within))
            [ infinity; exact; Float.pred exact; Float.succ exact;
              exact /. 2.; 0. ])
        entries)
    entries;
  Alcotest.(check int) "cases" (8 * 8 * 6) !checked

(* The row kernel's hits against the boxed formula over random flat
   spectra: every length-preserving spec, abandoning at the threshold,
   never, and at a limit below it, a threshold set exactly to one
   pair's boxed distance (the [<=] tie), lengths below the head width,
   and the empty row [j0 = count]. *)
let test_row_kernel_matches_boxed () =
  let module Flat = Simq_dsp.Flat in
  let state = Random.State.make [| 15 |] in
  let count = 24 in
  List.iter
    (fun n ->
      let spectra =
        Array.init count (fun _ ->
            Array.init (2 * n) (fun _ -> Random.State.float state 2. -. 1.))
      in
      let boxed = Array.map Flat.to_cpx spectra in
      let specs =
        [ Spec.Identity; Spec.Reverse; Spec.Moving_average 2;
          Spec.Weighted_ma (Simq_dsp.Window.ascending 2) ]
        @ (if n >= 7 then
             [ Spec.Moving_average 7;
               Spec.Weighted_ma (Simq_dsp.Window.ascending 5) ]
           else [])
      in
      List.iter
        (fun spec ->
          let stretch = Spec.stretch spec ~n in
          let rows = Flat.rows ~stretch:(Flat.of_cpx stretch) spectra in
          (* Both sides stretched with [Cpx.mul], as the join compares
             two transformed spectra. *)
          let stretched = Array.map (Simq_dsp.Cpx.mul_arrays stretch) boxed in
          let boxed_sum ~limit i j =
            let sum, _, _ =
              boxed_sq_dist ~stretch:None ~limit stretched.(i) stretched.(j)
            in
            sum
          in
          let tie = boxed_sum ~limit:infinity 0 1 in
          let hits = Array.make count (-1) in
          List.iter
            (fun threshold ->
              (* Abandoning at the threshold, never, and at a limit
                 below it — where a pair's partial sum decides its hit,
                 so the coefficient it abandons after must match. *)
              List.iter
                (fun (abandon, limit) ->
                  for i = 0 to count - 1 do
                    List.iter
                      (fun j0 ->
                        let expected =
                          List.filter
                            (fun j -> boxed_sum ~limit i j <= threshold)
                            (List.init (count - j0) (fun d -> j0 + d))
                        in
                        let found =
                          Flat.within_row rows ~limit ~threshold ~i ~j0 hits
                        in
                        Alcotest.(check (list int))
                          (Printf.sprintf "%s n=%d i=%d j0=%d abandon %s"
                             (Spec.name spec) n i j0 abandon)
                          expected
                          (Array.to_list (Array.sub hits 0 found)))
                      [ 0; i + 1; count ];
                    (* The band entry point: the same hits, cut at
                       [j1], after its coefficient-1 pre-pass — which
                       needs the limit at or above the threshold. *)
                    let band j1 =
                      Flat.within_band rows ~limit ~threshold ~i ~j1 hits
                    in
                    if limit < threshold then
                      Alcotest.check_raises "band below the threshold"
                        (Invalid_argument
                           "Flat.within_band: limit below the threshold")
                        (fun () -> ignore (band count))
                    else
                      List.iter
                        (fun j1 ->
                          let expected =
                            List.filter
                              (fun j -> boxed_sum ~limit i j <= threshold)
                              (List.init (j1 - i - 1) (fun d -> i + 1 + d))
                          in
                          let found = band j1 in
                          Alcotest.(check (list int))
                            (Printf.sprintf "%s n=%d i=%d j1=%d band, abandon %s"
                               (Spec.name spec) n i j1 abandon)
                            expected
                            (Array.to_list (Array.sub hits 0 found)))
                        (List.sort_uniq compare
                           [ i + 1; (i + 1 + count) / 2; count ])
                  done)
                [ ("at", threshold); ("off", infinity);
                  ("below", threshold /. 4.) ])
            [ tie; tie /. 2.; tie *. 1.5; float_of_int n ];
          (* The tie itself is a hit, and the next float below it not. *)
          let hits_of ~threshold =
            Array.to_list
              (Array.sub hits 0
                 (Flat.within_row rows ~limit:threshold ~threshold ~i:0 ~j0:1
                    hits))
          in
          let band_hits_of ~threshold =
            Array.to_list
              (Array.sub hits 0
                 (Flat.within_band rows ~limit:threshold ~threshold ~i:0
                    ~j1:count hits))
          in
          Alcotest.(check bool) "the tie is a hit" true
            (List.mem 1 (hits_of ~threshold:tie));
          Alcotest.(check bool) "just below the tie is not" false
            (List.mem 1 (hits_of ~threshold:(Float.pred tie)));
          Alcotest.(check bool) "the tie is a band hit" true
            (List.mem 1 (band_hits_of ~threshold:tie));
          Alcotest.(check bool) "just below the tie is no band hit" false
            (List.mem 1 (band_hits_of ~threshold:(Float.pred tie))))
        specs)
    [ 2; 3; 4; 16; 64 ];
  (* The kernel allocates nothing: only the two [Gc.minor_words]
     results are boxed across a thousand rows. *)
  let spectra = Array.init count (fun _ -> Array.make 128 0.5) in
  let rows =
    Flat.rows
      ~stretch:(Flat.of_cpx (Spec.stretch (Spec.Moving_average 4) ~n:64))
      spectra
  in
  let hits = Array.make count 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Flat.within_row rows ~limit:infinity ~threshold:1. ~i:0 ~j0:1 hits)
  done;
  Alcotest.(check bool) "no allocation per row" true
    (Gc.minor_words () -. before < 16.);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore
      (Flat.within_band rows ~limit:infinity ~threshold:1. ~i:0 ~j1:count hits)
  done;
  Alcotest.(check bool) "no allocation per band row" true
    (Gc.minor_words () -. before < 16.)

(* Positions follow [?order]: a band row over the ordered positions
   hits exactly the entries the unordered row kernel hits among the
   later positions. [sort_key] is [Complex.mul]'s real part of
   coefficient 1. *)
let test_rows_order () =
  let module Flat = Simq_dsp.Flat in
  let d = dataset_of ~seed:17 ~count:9 ~n:16 in
  let spectra =
    Array.map (fun (e : Dataset.entry) -> e.Dataset.spectrum) (Dataset.entries d)
  in
  let stretch = Flat.of_cpx (Spec.stretch (Spec.Moving_average 3) ~n:16) in
  let order = [| 4; 0; 8; 2; 6; 1; 3; 5; 7 |] in
  let plain = Flat.rows ~stretch spectra
  and sorted = Flat.rows ~stretch ~order spectra in
  let hits = Array.make 9 0 in
  let position = Array.make 9 0 in
  Array.iteri (fun p j -> position.(j) <- p) order;
  List.iter
    (fun threshold ->
      Array.iteri
        (fun p i ->
          let expected =
            Array.sub hits 0
              (Flat.within_row plain ~limit:threshold ~threshold ~i ~j0:0 hits)
            |> Array.to_list
            |> List.filter (fun j -> position.(j) > p)
            |> List.sort compare
          in
          let found =
            Flat.within_band sorted ~limit:threshold ~threshold ~i:p ~j1:9 hits
          in
          Alcotest.(check (list int))
            (Printf.sprintf "band row %d, threshold %g" p threshold)
            expected
            (List.sort compare
               (List.map (fun q -> order.(q))
                  (Array.to_list (Array.sub hits 0 found)))))
        order)
    [ 0.; 8.; 16.; 24.; 32.; infinity ];
  Array.iter
    (fun x ->
      Alcotest.(check (float 0.)) "sort_key = Complex.mul's real part"
        (Complex.mul (Flat.coeff stretch 1) (Flat.coeff x 1)).Complex.re
        (Flat.sort_key ~stretch x))
    spectra;
  Alcotest.check_raises "order length"
    (Invalid_argument "Flat.rows: order length differs from the spectra")
    (fun () -> ignore (Flat.rows ~stretch ~order:[| 0 |] spectra))

let test_flat_spectrum_is_fft () =
  let d = dataset_of ~seed:13 ~count:8 ~n:48 in
  Array.iter
    (fun (e : Dataset.entry) ->
      let reference = Simq_dsp.Fft.fft_real e.Dataset.normal in
      Alcotest.(check int) "coefficients" (Array.length reference)
        (Simq_dsp.Flat.length e.Dataset.spectrum);
      Array.iteri
        (fun f (z : Simq_dsp.Cpx.t) ->
          let c = Simq_dsp.Flat.coeff e.Dataset.spectrum f in
          Alcotest.(check bool) "coefficient bit-identical" true
            (same_bits z.Complex.re c.Complex.re
            && same_bits z.Complex.im c.Complex.im))
        reference)
    (Dataset.entries d)

let test_dataset_rejects_mixed_lengths () =
  let r = Simq_storage.Relation.create ~name:"bad" () in
  ignore (Simq_storage.Relation.insert r ~name:"a" (Array.make 8 1.));
  ignore (Simq_storage.Relation.insert r ~name:"b" (Array.make 16 1.));
  Alcotest.check_raises "unequal lengths"
    (Invalid_argument "Dataset.of_relation: series of unequal lengths")
    (fun () -> ignore (Dataset.of_relation r))

(* --- Kindex range: exactness under every spec and representation ------------- *)

let test_range_matches_reference () =
  let dropped = ref 0 in
  List.iter
    (fun representation ->
      let d = dataset_of ~seed:7 ~count:120 ~n:64 in
      let config = { Feature.k = 2; representation } in
      let idx = Kindex.build ~config ~max_fill:8 d in
      List.iter
        (fun spec ->
          (* Complex stretches are only safe in S_pol (Theorem 3). *)
          let skip =
            representation = Coords.Rectangular
            && (match spec with
               | Spec.Moving_average _ | Spec.Weighted_ma _ | Spec.Warp _ -> true
               | Spec.Identity | Spec.Reverse -> false)
          in
          if not skip then
            List.iter
              (fun (qseed, epsilon) ->
                let query = query_for d spec qseed in
                let expected = Seqscan.reference ~spec d ~query ~epsilon in
                let actual = Kindex.range ~spec idx ~query ~epsilon in
                let label =
                  Printf.sprintf "%s %s eps=%g"
                    (match representation with
                    | Coords.Polar -> "polar"
                    | Coords.Rectangular -> "rect")
                    (Spec.name spec) epsilon
                in
                check_same_answers label expected actual.Kindex.answers;
                Alcotest.(check bool) (label ^ ": superset")
                  true
                  (actual.Kindex.candidates
                  >= List.length actual.Kindex.answers);
                (* Under side constraints the scan — the planner's and
                   every shard's degradation path — returns the index
                   answer, ids and distances bit for bit. *)
                List.iter
                  (fun (mean_window, std_band) ->
                    let index =
                      Kindex.range ~spec ?mean_window ?std_band idx ~query
                        ~epsilon
                    in
                    match
                      Seqscan.range_checked ~spec ?mean_window ?std_band d
                        ~query ~epsilon
                    with
                    | Error e ->
                      Alcotest.failf "%s: constrained scan failed: %s" label
                        (Simq_fault.Error.to_string e)
                    | Ok scan ->
                      let pairs answers =
                        List.map
                          (fun ((e : Dataset.entry), dist) ->
                            (e.Dataset.id, dist))
                          answers
                      in
                      Alcotest.(check (list (pair int (float 0.))))
                        (label ^ ": constrained scan = constrained index")
                        (pairs index.Kindex.answers)
                        (pairs scan.Seqscan.answers);
                      dropped :=
                        !dropped + List.length actual.Kindex.answers
                        - List.length index.Kindex.answers)
                  [ (Some 5., None); (None, Some 1.5); (Some 5., Some 2.) ])
              [ (1, 0.5); (2, 2.); (3, 6.); (4, 12.) ])
        all_specs)
    [ Coords.Polar; Coords.Rectangular ];
  Alcotest.(check bool) "the side constraints drop answers" true (!dropped > 0)

let test_range_rejects_bad_query_length () =
  let d = dataset_of ~seed:9 ~count:10 ~n:32 in
  let idx = Kindex.build d in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Kindex: query length 16, expected 32") (fun () ->
      ignore (Kindex.range idx ~query:(Array.make 16 1.) ~epsilon:1.));
  Alcotest.check_raises "warp needs long query"
    (Invalid_argument "Kindex: query length 32, expected 64") (fun () ->
      ignore
        (Kindex.range ~spec:(Spec.Warp 2) idx ~query:(Array.make 32 1.)
           ~epsilon:1.))

let test_range_prunes () =
  (* A selective query must not postprocess the whole data set. *)
  let d = dataset_of ~seed:11 ~count:800 ~n:64 in
  let idx = Kindex.build ~max_fill:16 d in
  let query = query_for d Spec.Identity 1 in
  let r = Kindex.range idx ~query ~epsilon:1. in
  Alcotest.(check bool)
    (Printf.sprintf "candidates %d << 800" r.Kindex.candidates)
    true
    (r.Kindex.candidates < 200)

let test_rtree_of_index_is_valid () =
  let d = dataset_of ~seed:13 ~count:200 ~n:32 in
  let idx = Kindex.build ~max_fill:8 d in
  Alcotest.(check bool) "invariants" true
    (Simq_rtree.Check.is_valid (Kindex.tree idx))

let test_range_with_k3_config () =
  (* A third coefficient changes the index layout, not the answers. *)
  let d = dataset_of ~seed:43 ~count:100 ~n:64 in
  let config = { Feature.k = 3; representation = Coords.Polar } in
  let idx = Kindex.build ~config ~max_fill:8 d in
  List.iter
    (fun spec ->
      let query = query_for d spec 6 in
      let expected = Seqscan.reference ~spec d ~query ~epsilon:5. in
      let actual = Kindex.range ~spec idx ~query ~epsilon:5. in
      check_same_answers (Spec.name spec ^ " k=3") expected actual.Kindex.answers)
    [ Spec.Identity; Spec.Moving_average 8; Spec.Reverse ]

(* --- Kindex nearest ----------------------------------------------------------- *)

let brute_nearest ~spec d ~query ~k =
  let q = Dataset.prepare_query query in
  Array.to_list (Dataset.entries d)
  |> List.map (fun (e : Dataset.entry) ->
         ( e,
           Simq_series.Distance.euclidean
             (Spec.apply_series spec e.Dataset.normal)
             q.Dataset.normal ))
  |> List.sort (fun (_, d1) (_, d2) -> Float.compare d1 d2)
  |> List.filteri (fun i _ -> i < k)

let test_nearest_matches_brute_force () =
  let d = dataset_of ~seed:17 ~count:150 ~n:64 in
  List.iter
    (fun representation ->
      let config = { Feature.k = 2; representation } in
      let idx = Kindex.build ~config ~max_fill:8 d in
      List.iter
        (fun spec ->
          let skip =
            representation = Coords.Rectangular
            && (match spec with
               | Spec.Moving_average _ | Spec.Weighted_ma _ | Spec.Warp _ -> true
               | Spec.Identity | Spec.Reverse -> false)
          in
          if not skip then begin
            let query = query_for d spec 23 in
            let expected = brute_nearest ~spec d ~query ~k:5 in
            let actual = Kindex.nearest ~spec idx ~query ~k:5 in
            List.iter2
              (fun (_, d1) (_, d2) ->
                Alcotest.(check (float 1e-6))
                  (Spec.name spec ^ " nn distance")
                  d1 d2)
              expected actual
          end)
        all_specs)
    [ Coords.Polar; Coords.Rectangular ]

(* NN against a brute-force linear selection on the one kernel
   ([Flat.sq_dist] over coefficients [0 .. n-1]), ordered by
   (distance, id): the traversal's answers must be these ids and these
   doubles, bit for bit. *)
let kernel_nearest ~spec d ~query ~k =
  let n = Dataset.series_length d in
  let q = Dataset.prepare_query query in
  let stretch =
    match spec with
    | Spec.Identity -> None
    | _ -> Some (Simq_dsp.Flat.of_cpx (Spec.stretch spec ~n))
  in
  Array.to_list (Dataset.entries d)
  |> List.map (fun (e : Dataset.entry) ->
         let acc = Simq_dsp.Flat.acc () in
         ignore
           (Simq_dsp.Flat.sq_dist ~stretch ~limit:infinity ~lo:0 ~hi:n
              e.Dataset.spectrum 0 q.Dataset.spectrum 0 acc);
         (sqrt acc.Simq_dsp.Flat.sum, e.Dataset.id))
  |> List.sort compare
  |> List.filteri (fun i _ -> i < k)

let nn_pairs answers =
  List.map (fun ((e : Dataset.entry), d) -> (d, e.Dataset.id)) answers

let nn_ok what = function
  | Ok answers -> answers
  | Error e -> Alcotest.failf "%s failed: %s" what (Simq_fault.Error.kind e)

(* Every series appears twice, so equal distances come in pairs and
   the k = 1 and k = 5 boundaries cut through ties (a query equal to a
   stored series ties at distance 0); n = 2 and 3 sit below the head
   width, 32 above it (smoothing windows wider than n do not apply). Each case runs through [nearest],
   [nearest_checked] under a finite budget, and a 4-shard executor
   (plain and checked) at 1 and 2 domains. Complex stretches are only
   safe in the polar representation (Theorem 3). *)
let test_nearest_matches_kernel_selection () =
  let module Shard = Simq_shard in
  let module Pool = Simq_parallel.Pool in
  let module Budget = Simq_fault.Budget in
  let pools = [ (1, Pool.sequential); (2, Pool.create ~domains:2) ] in
  let budget () =
    Budget.create ~max_comparisons:1_000_000 ~max_node_accesses:1_000_000 ()
  in
  List.iter
    (fun n ->
      let base = Generator.random_walks ~seed:(70 + n) ~count:20 ~n in
      let d = Dataset.of_series ~name:"dup" (Array.append base base) in
      let count = Dataset.cardinality d in
      List.iter
        (fun representation ->
          let config = { Feature.k = Int.min 2 (n - 1); representation } in
          let idx = Kindex.build ~config ~max_fill:4 d in
          let sh =
            Shard.create ~pool:Pool.sequential ~config ~max_fill:4 ~shards:4 d
          in
          List.iter
            (fun spec ->
              let safe =
                representation = Coords.Polar
                ||
                match spec with
                | Spec.Identity | Spec.Reverse -> true
                | _ -> false
              in
              (* A smoothing window must fit in the series. *)
              let fits =
                match spec with
                | Spec.Moving_average m -> m <= n
                | Spec.Weighted_ma w -> Simq_dsp.Window.width w <= n
                | _ -> true
              in
              if safe && fits then
                List.iter
                  (fun (qname, query) ->
                    List.iter
                      (fun k ->
                        let label =
                          Printf.sprintf "n=%d %s %s %s k=%d" n
                            (match representation with
                            | Coords.Polar -> "polar"
                            | Coords.Rectangular -> "rect")
                            (Spec.name spec) qname k
                        in
                        let expected = kernel_nearest ~spec d ~query ~k in
                        let check what answers =
                          Alcotest.(check (list (pair (float 0.) int)))
                            (label ^ " " ^ what) expected (nn_pairs answers)
                        in
                        check "nearest" (Kindex.nearest ~spec idx ~query ~k);
                        check "nearest_checked"
                          (nn_ok label
                             (Kindex.nearest_checked ~spec ~budget:(budget ())
                                idx ~query ~k));
                        List.iter
                          (fun (domains, pool) ->
                            check
                              (Printf.sprintf "4 shards, %d domains" domains)
                              (Shard.nearest ~pool ~spec sh ~query ~k)
                                .Shard.neighbours;
                            check
                              (Printf.sprintf "4 shards checked, %d domains"
                                 domains)
                              (nn_ok label
                                 (Shard.nearest_checked ~pool ~spec
                                    ~budget:(budget ()) sh ~query ~k))
                                .Shard.neighbours)
                          pools)
                      [ 1; 5; count ])
                  [
                    ("perturbed", query_for d spec 3);
                    ("stored", (Dataset.get d 7).Dataset.series);
                  ])
            [
              Spec.Identity;
              Spec.Moving_average 3;
              Spec.Moving_average 8;
              Spec.Weighted_ma (Simq_dsp.Window.ascending 5);
              Spec.Reverse;
            ])
        [ Coords.Polar; Coords.Rectangular ])
    [ 2; 3; 32 ]

(* A series inserted after the build is found by NN at distance 0: the
   head table grows with the entries. *)
let test_nearest_finds_inserted () =
  let d = dataset_of ~seed:64 ~count:30 ~n:32 in
  let idx = Kindex.build ~max_fill:8 d in
  let extra = Generator.random_walks ~seed:65 ~count:40 ~n:32 in
  Array.iteri
    (fun i s ->
      let entry = Kindex.insert idx ~name:(Printf.sprintf "new-%d" i) s in
      match Kindex.nearest idx ~query:s ~k:1 with
      | [ (e, dist) ] ->
        Alcotest.(check int) "inserted id" entry.Dataset.id e.Dataset.id;
        Alcotest.(check (float 0.)) "distance 0" 0. dist
      | _ -> Alcotest.fail "expected one neighbour")
    extra;
  (* Earlier entries' head slots survive every growth of the table. *)
  let query = query_for d Spec.Identity 4 in
  Alcotest.(check (list (pair (float 0.) int)))
    "grown set = kernel selection"
    (kernel_nearest ~spec:Spec.Identity d ~query ~k:7)
    (nn_pairs (Kindex.nearest idx ~query ~k:7))

(* The checked traversal charges one comparison per refinement (the
   profile's candidate count) and nothing for queue keys, and expands
   exactly the nodes of a traversal that queues every entry under its
   exact distance — the traversal before deferral. *)
let test_nearest_checked_charges () =
  let module Budget = Simq_fault.Budget in
  let module Profile = Simq_obs.Profile in
  let d = dataset_of ~seed:66 ~count:200 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  let tree = Kindex.tree idx in
  let outcome spec query ~k budget =
    match Kindex.nearest_checked ~spec ~budget idx ~query ~k with
    | Ok _ -> "ok"
    | Error e -> Simq_fault.Error.kind e
  in
  List.iter
    (fun spec ->
      let query = query_for d spec 11 in
      let k = 5 in
      let profile = Profile.create () in
      let n0 = Simq_rtree.Rstar.node_accesses tree in
      let answers = Kindex.nearest ~spec ~profile idx ~query ~k in
      let nodes = Simq_rtree.Rstar.node_accesses tree - n0 in
      let refinements =
        match Profile.find profile "kindex.nearest" with
        | Some node -> Profile.candidates node
        | None -> Alcotest.fail "no kindex.nearest node"
      in
      let exact = Kindex.prepared_distance idx (Kindex.prepare idx spec) in
      let n1 = Simq_rtree.Rstar.node_accesses tree in
      let exact_keyed =
        Kindex.nearest ~spec
          ~sketch:(fun q -> Some (fun e -> exact q e))
          idx ~query ~k
      in
      let label = Spec.name spec in
      Alcotest.(check (list (pair (float 0.) int)))
        (label ^ ": exact-keyed answers")
        (nn_pairs answers) (nn_pairs exact_keyed);
      Alcotest.(check int) (label ^ ": nodes of the exact-keyed traversal")
        (Simq_rtree.Rstar.node_accesses tree - n1)
        nodes;
      Alcotest.(check bool) (label ^ ": refinement skips entries") true
        (refinements < Dataset.cardinality d);
      let run ?max_comparisons ?max_node_accesses () =
        outcome spec query ~k
          (Budget.create ?max_comparisons ?max_node_accesses ())
      in
      Alcotest.(check string) (label ^ ": one comparison per refinement")
        "ok" (run ~max_comparisons:refinements ());
      Alcotest.(check string) (label ^ ": one refinement short")
        "budget_exceeded:comparisons"
        (run ~max_comparisons:(refinements - 1) ());
      Alcotest.(check string) (label ^ ": every node charged") "ok"
        (run ~max_node_accesses:nodes ());
      Alcotest.(check string) (label ^ ": one node short")
        "budget_exceeded:node_accesses"
        (run ~max_node_accesses:(nodes - 1) ()))
    [ Spec.Identity; Spec.Moving_average 8; Spec.Reverse ]

(* --- Seqscan ------------------------------------------------------------------ *)

let test_seqscan_variants_agree () =
  let d = dataset_of ~seed:19 ~count:100 ~n:64 in
  List.iter
    (fun spec ->
      let query = query_for d spec 5 in
      let epsilon = 4. in
      let reference = Seqscan.reference ~spec d ~query ~epsilon in
      let full = Seqscan.range_full ~spec d ~query ~epsilon in
      let early = Seqscan.range_early_abandon ~spec d ~query ~epsilon in
      check_same_answers (Spec.name spec ^ " full") reference full.Seqscan.answers;
      check_same_answers (Spec.name spec ^ " early") reference
        early.Seqscan.answers;
      Alcotest.(check bool) "early abandon touches fewer coefficients" true
        (early.Seqscan.coefficients_touched <= full.Seqscan.coefficients_touched))
    all_specs

let test_seqscan_counts_page_reads () =
  let d = dataset_of ~seed:21 ~count:200 ~n:128 in
  let stats = Simq_storage.Relation.stats (Dataset.relation d) in
  Simq_storage.Io_stats.reset stats;
  let query = query_for d Spec.Identity 3 in
  ignore (Seqscan.range_full d ~query ~epsilon:1.);
  Alcotest.(check bool) "page reads recorded" true
    (Simq_storage.Io_stats.page_reads stats
     + Simq_storage.Io_stats.cache_hits stats
    > 0)

(* --- Join ---------------------------------------------------------------------- *)

let canonical_pairs pairs =
  List.map (fun (a, b) -> (min a b, max a b)) pairs
  |> List.sort_uniq compare

let test_join_methods_agree () =
  let d = dataset_of ~seed:23 ~count:60 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  List.iter
    (fun (spec, epsilon) ->
      let a = Join.scan_full ~spec idx ~epsilon in
      let b = Join.scan_early_abandon ~spec idx ~epsilon in
      let dd = Join.index_transformed ~spec idx ~epsilon in
      let label = Spec.name spec in
      Alcotest.(check (list (pair int int)))
        (label ^ ": a = b")
        (canonical_pairs a.Join.pairs)
        (canonical_pairs b.Join.pairs);
      Alcotest.(check (list (pair int int)))
        (label ^ ": a = d (canonical)")
        (canonical_pairs a.Join.pairs)
        (canonical_pairs dd.Join.pairs);
      (* Method d reports both directions. *)
      Alcotest.(check int)
        (label ^ ": d size doubles")
        (2 * List.length (canonical_pairs dd.Join.pairs))
        (List.length dd.Join.pairs))
    [ (Spec.Identity, 3.); (Spec.Moving_average 8, 1.5); (Spec.Warp 2, 4.) ]

let test_join_untransformed_matches_identity () =
  let d = dataset_of ~seed:29 ~count:50 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  let c = Join.index_untransformed idx ~epsilon:3. in
  let a = Join.scan_full idx ~epsilon:3. in
  Alcotest.(check (list (pair int int))) "c = a (canonical)"
    (canonical_pairs a.Join.pairs)
    (canonical_pairs c.Join.pairs)

let test_join_transformed_finds_more_smoothed_pairs () =
  (* Example-1.1 style: smoothing admits pairs the raw distance refuses. *)
  let d = dataset_of ~seed:31 ~count:80 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  let raw = Join.scan_full idx ~epsilon:2. in
  let smoothed = Join.scan_full ~spec:(Spec.Moving_average 16) idx ~epsilon:2. in
  Alcotest.(check bool)
    (Printf.sprintf "smoothing can only help here (%d vs %d)"
       (List.length smoothed.Join.pairs)
       (List.length raw.Join.pairs))
    true
    (List.length smoothed.Join.pairs >= List.length raw.Join.pairs)

(* Method (b) charges each row's band window, and its comparison
   counter, its metric and its profile node all report that count:
   fewer than the [n (n - 1) / 2] pairs of method (a). *)
let test_join_checked_charges () =
  let module Budget = Simq_fault.Budget in
  let module Metrics = Simq_obs.Metrics in
  let module Profile = Simq_obs.Profile in
  let d = dataset_of ~seed:41 ~count:120 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  let pool = Simq_parallel.Pool.sequential in
  let m = Metrics.counter "simq_join_comparisons_total" in
  List.iter
    (fun (spec, epsilon) ->
      let label = Spec.name spec in
      let profile = Profile.create () in
      let before = Metrics.counter_total m in
      let r =
        Metrics.with_enabled true (fun () ->
            Join.scan_early_abandon ~pool ~spec ~profile idx ~epsilon)
      in
      let n = Dataset.cardinality d in
      Alcotest.(check bool) (label ^ ": the band skips pairs") true
        (r.Join.distance_computations < n * (n - 1) / 2);
      Alcotest.(check int) (label ^ ": metric = computations")
        r.Join.distance_computations
        (Metrics.counter_total m - before);
      Alcotest.(check int) (label ^ ": profile candidates = computations")
        r.Join.distance_computations
        (match Profile.find profile "join.scan" with
        | Some node -> Profile.candidates node
        | None -> Alcotest.fail "no join.scan node");
      let run max_comparisons =
        match
          Join.scan_checked ~pool ~spec
            ~budget:(Budget.create ~max_comparisons ())
            idx ~epsilon
        with
        | Ok r' ->
          Alcotest.(check (list (pair int int))) (label ^ ": checked pairs")
            r.Join.pairs r'.Join.pairs;
          "ok"
        | Error e -> Simq_fault.Error.kind e
      in
      Alcotest.(check string) (label ^ ": one comparison per window pair")
        "ok" (run r.Join.distance_computations);
      Alcotest.(check string) (label ^ ": one comparison short")
        "budget_exceeded:comparisons"
        (run (r.Join.distance_computations - 1)))
    [ (Spec.Identity, 2.); (Spec.Moving_average 8, 1.); (Spec.Reverse, 2.5) ]

(* --- GK95 constraints & raw queries ----------------------------------------- *)

let test_range_mean_std_constraints () =
  let d = dataset_of ~seed:37 ~count:150 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  let query = query_for d Spec.Identity 4 in
  let epsilon = 8. in
  let unconstrained = Kindex.range idx ~query ~epsilon in
  let decomposition = Simq_series.Normal_form.decompose query in
  let qmean = decomposition.Simq_series.Normal_form.mean in
  let qstd = decomposition.Simq_series.Normal_form.std in
  let mean_window = 5. and std_band = 1.3 in
  let constrained =
    Kindex.range ~mean_window ~std_band idx ~query ~epsilon
  in
  (* The constrained answers are exactly the unconstrained ones whose
     mean/std fall in the windows. *)
  let expected =
    List.filter
      (fun ((e : Dataset.entry), _) ->
        Float.abs (e.Dataset.mean -. qmean) <= mean_window
        && e.Dataset.std >= qstd /. std_band
        && e.Dataset.std <= qstd *. std_band)
      unconstrained.Kindex.answers
  in
  Alcotest.(check (list int)) "filtered ids" (ids_of expected)
    (ids_of constrained.Kindex.answers);
  Alcotest.(check bool) "constraints prune" true
    (List.length constrained.Kindex.answers
    <= List.length unconstrained.Kindex.answers);
  Alcotest.check_raises "negative window"
    (Invalid_argument "Kindex.range: negative mean_window") (fun () ->
      ignore (Kindex.range ~mean_window:(-1.) idx ~query ~epsilon));
  Alcotest.check_raises "bad band"
    (Invalid_argument "Kindex.range: std_band must be >= 1") (fun () ->
      ignore (Kindex.range ~std_band:0.5 idx ~query ~epsilon))

let test_range_unnormalised_query () =
  (* Both-sides-transformed matching: smooth the normalised query and
     search with ~normalise_query:false; the index must agree with a
     direct computation. *)
  let d = dataset_of ~seed:41 ~count:100 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  let spec = Spec.Moving_average 8 in
  let base = query_for d Spec.Identity 9 in
  let query =
    Simq_series.Moving_average.circular (Simq_dsp.Window.uniform 8)
      (Simq_series.Normal_form.normalise base)
  in
  let epsilon = 1.0 in
  let result = Kindex.range ~spec ~normalise_query:false idx ~query ~epsilon in
  let expected =
    Array.to_list (Dataset.entries d)
    |> List.filter_map (fun (e : Dataset.entry) ->
           let dist =
             Simq_series.Distance.euclidean
               (Spec.apply_series spec e.Dataset.normal)
               query
           in
           if dist <= epsilon then Some e.Dataset.id else None)
  in
  Alcotest.(check (list int)) "matches direct computation" expected
    (ids_of result.Kindex.answers)

(* --- Index maintenance --------------------------------------------------------- *)

let test_kindex_insert_visible () =
  let d = dataset_of ~seed:61 ~count:80 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  let extra = Generator.random_walks ~seed:62 ~count:20 ~n:64 in
  Array.iteri
    (fun i s ->
      let entry = Kindex.insert idx ~name:(Printf.sprintf "new-%d" i) s in
      Alcotest.(check int) "dense id" (80 + i) entry.Dataset.id)
    extra;
  Alcotest.(check int) "cardinality" 100 (Dataset.cardinality d);
  Alcotest.(check int) "tree size" 100
    (Simq_rtree.Rstar.size (Kindex.tree idx));
  Alcotest.(check bool) "invariants" true
    (Simq_rtree.Check.is_valid (Kindex.tree idx));
  (* A query around a freshly inserted series finds it. *)
  let query = extra.(5) in
  let r = Kindex.range idx ~query ~epsilon:0.5 in
  Alcotest.(check bool) "new series found" true
    (List.exists (fun ((e : Dataset.entry), _) -> e.Dataset.id = 85)
       r.Kindex.answers);
  (* And results still agree with the scan reference over the grown set. *)
  let reference = Seqscan.reference d ~query ~epsilon:6. in
  let actual = Kindex.range idx ~query ~epsilon:6. in
  Alcotest.(check (list int)) "reference equivalence" (ids_of reference)
    (ids_of actual.Kindex.answers)

let test_kindex_insert_rejects_bad_length () =
  let d = dataset_of ~seed:63 ~count:10 ~n:64 in
  let idx = Kindex.build d in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Dataset.insert: series length mismatch") (fun () ->
      ignore (Kindex.insert idx ~name:"bad" (Array.make 32 1.)))

let test_kindex_delete () =
  let d = dataset_of ~seed:64 ~count:60 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  let victim = (Dataset.get d 7).Dataset.series in
  let before = Kindex.range idx ~query:victim ~epsilon:0.1 in
  Alcotest.(check bool) "victim present" true
    (List.exists (fun ((e : Dataset.entry), _) -> e.Dataset.id = 7)
       before.Kindex.answers);
  Alcotest.(check bool) "delete succeeds" true (Kindex.delete idx 7);
  Alcotest.(check bool) "second delete fails" false (Kindex.delete idx 7);
  Alcotest.(check bool) "unknown id fails" false (Kindex.delete idx 999);
  let after = Kindex.range idx ~query:victim ~epsilon:0.1 in
  Alcotest.(check bool) "victim gone" false
    (List.exists (fun ((e : Dataset.entry), _) -> e.Dataset.id = 7)
       after.Kindex.answers);
  Alcotest.(check int) "tree shrank" 59 (Simq_rtree.Rstar.size (Kindex.tree idx));
  Alcotest.(check bool) "invariants" true
    (Simq_rtree.Check.is_valid (Kindex.tree idx))

(* --- Subsequence matching ---------------------------------------------------- *)

let brute_force_subseq series ~window ~query ~epsilon =
  let hits = ref [] in
  Array.iteri
    (fun series_id s ->
      for offset = 0 to Series.length s - window do
        let slice = Simq_series.Series.subsequence s ~pos:offset ~len:window in
        let d = Simq_series.Distance.euclidean slice query in
        if d <= epsilon then hits := (series_id, offset, d) :: !hits
      done)
    series;
  List.sort compare !hits

let test_subseq_range_matches_brute_force () =
  let series = Generator.random_walks ~seed:51 ~count:20 ~n:100 in
  let window = 16 in
  let index = Subseq.build ~window series in
  Alcotest.(check int) "windows indexed" (20 * (100 - 16 + 1))
    (Subseq.windows_indexed index);
  let state = Random.State.make [| 52 |] in
  for trial = 1 to 10 do
    let sid = Random.State.int state 20 in
    let off = Random.State.int state (100 - window + 1) in
    let base = Simq_series.Series.subsequence series.(sid) ~pos:off ~len:window in
    let query =
      Array.map (fun v -> v +. Random.State.float state 0.4 -. 0.2) base
    in
    let epsilon = 0.5 +. Random.State.float state 2. in
    let expected = brute_force_subseq series ~window ~query ~epsilon in
    let hits, candidates = Subseq.range index ~query ~epsilon in
    let actual =
      List.map (fun h -> (h.Subseq.series_id, h.Subseq.offset, h.Subseq.distance)) hits
    in
    Alcotest.(check int)
      (Printf.sprintf "trial %d: hit count" trial)
      (List.length expected) (List.length actual);
    List.iter2
      (fun (es, eo, ed) (s, o, d) ->
        Alcotest.(check int) "series" es s;
        Alcotest.(check int) "offset" eo o;
        Alcotest.(check (float 1e-9)) "distance" ed d)
      expected actual;
    Alcotest.(check bool) "superset" true (candidates >= List.length actual)
  done

let test_subseq_nearest () =
  let series = Generator.random_walks ~seed:53 ~count:10 ~n:64 in
  let window = 8 in
  let index = Subseq.build ~window series in
  (* The nearest window to an exact slice is that slice at distance 0. *)
  let query = Simq_series.Series.subsequence series.(3) ~pos:17 ~len:window in
  (match Subseq.nearest index ~query ~k:1 with
  | [ h ] ->
    Alcotest.(check int) "series" 3 h.Subseq.series_id;
    Alcotest.(check int) "offset" 17 h.Subseq.offset;
    Alcotest.(check (float 1e-9)) "distance" 0. h.Subseq.distance
  | other -> Alcotest.failf "expected 1 hit, got %d" (List.length other));
  (* k-NN distances match a brute-force ranking. *)
  let all = brute_force_subseq series ~window ~query ~epsilon:Float.infinity in
  let expected =
    List.sort (fun (_, _, d1) (_, _, d2) -> Float.compare d1 d2) all
    |> List.filteri (fun i _ -> i < 5)
    |> List.map (fun (_, _, d) -> d)
  in
  let actual =
    Subseq.nearest index ~query ~k:5 |> List.map (fun h -> h.Subseq.distance)
  in
  Alcotest.(check (list (float 1e-9))) "knn distances" expected actual

(* A scheduled node fault reaches both NN traversals through the
   attempt's budget state: the first visit of the first attempt fails,
   the retry (a fresh state, a new ordinal) runs clean, and the answer
   is the fault-free one. *)
let first_visit_faults () =
  let module Injector = Simq_fault.Injector in
  Simq_fault.Budget.create
    ~faults:
      (Injector.create
         ~node_accesses:(Injector.transient ~schedule:[ 1 ] ())
         ~seed:5 ())
    ()

let fast_retry = Simq_fault.Retry.policy ~base_delay_s:0. ()

let test_nearest_checked_retries_fault () =
  let d = dataset_of ~seed:67 ~count:120 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  let query = query_for d Spec.Identity 13 in
  let retries = ref 0 in
  match
    Kindex.nearest_checked ~budget:(first_visit_faults ()) ~retry:fast_retry
      ~on_retry:(fun ~attempt:_ -> incr retries)
      idx ~query ~k:5
  with
  | Ok answers ->
    Alcotest.(check int) "one retry" 1 !retries;
    Alcotest.(check (list (pair (float 0.) int)))
      "fault-free answer"
      (nn_pairs (Kindex.nearest idx ~query ~k:5))
      (nn_pairs answers)
  | Error e -> Alcotest.failf "retry should absorb it: %s" (Simq_fault.Error.kind e)

let test_subseq_nearest_checked_retries_fault () =
  let series = Generator.random_walks ~seed:54 ~count:10 ~n:64 in
  let index = Subseq.build ~window:8 series in
  let query = Simq_series.Series.subsequence series.(2) ~pos:9 ~len:8 in
  let retries = ref 0 in
  let hit (h : Subseq.hit) = (h.Subseq.series_id, h.Subseq.offset, h.Subseq.distance) in
  match
    Subseq.nearest_checked ~budget:(first_visit_faults ()) ~retry:fast_retry
      ~on_retry:(fun ~attempt:_ -> incr retries)
      index ~query ~k:4
  with
  | Ok hits ->
    Alcotest.(check int) "one retry" 1 !retries;
    Alcotest.(check (list (triple int int (float 0.))))
      "fault-free answer"
      (List.map hit (Subseq.nearest index ~query ~k:4))
      (List.map hit hits)
  | Error e -> Alcotest.failf "retry should absorb it: %s" (Simq_fault.Error.kind e)

let test_subseq_paper_example_12 () =
  (* Example 1.2: the minimum distance from p to a length-4 subsequence
     of s is over 1.41 without warping. *)
  let s = Simq_series.Fixtures.ex12_s and p = Simq_series.Fixtures.ex12_p in
  let index = Subseq.build ~k:2 ~window:4 [| s |] in
  let hits = Subseq.nearest index ~query:p ~k:1 in
  match hits with
  | [ h ] ->
    Alcotest.(check bool)
      (Printf.sprintf "min distance %.3f > 1.41" h.Subseq.distance)
      true
      (h.Subseq.distance >= 1.41)
  | _ -> Alcotest.fail "expected one hit"

let test_subseq_trails_match_points () =
  (* The trail layout returns exactly the same answers with far fewer
     index entries. *)
  let series = Generator.random_walks ~seed:55 ~count:15 ~n:96 in
  let window = 16 in
  let points = Subseq.build ~window series in
  let trails = Subseq.build ~trail:8 ~window series in
  Alcotest.(check int) "same windows" (Subseq.windows_indexed points)
    (Subseq.windows_indexed trails);
  Alcotest.(check bool)
    (Printf.sprintf "fewer entries (%d vs %d)" (Subseq.index_entries trails)
       (Subseq.index_entries points))
    true
    (Subseq.index_entries trails * 7 <= Subseq.index_entries points);
  let state = Random.State.make [| 56 |] in
  for _ = 1 to 8 do
    let sid = Random.State.int state 15 in
    let off = Random.State.int state (96 - window + 1) in
    let query =
      Simq_workload.Queries.perturb state
        (Simq_series.Series.subsequence series.(sid) ~pos:off ~len:window)
        ~amount:0.3
    in
    let epsilon = 0.5 +. Random.State.float state 1.5 in
    let from_points, _ = Subseq.range points ~query ~epsilon in
    let from_trails, _ = Subseq.range trails ~query ~epsilon in
    let strip hits =
      List.map (fun h -> (h.Subseq.series_id, h.Subseq.offset)) hits
    in
    Alcotest.(check (list (pair int int))) "same range answers"
      (strip from_points) (strip from_trails);
    let nn_points = Subseq.nearest points ~query ~k:4 in
    let nn_trails = Subseq.nearest trails ~query ~k:4 in
    Alcotest.(check (list (float 1e-9))) "same knn distances"
      (List.map (fun h -> h.Subseq.distance) nn_points)
      (List.map (fun h -> h.Subseq.distance) nn_trails)
  done

let test_subseq_trail_validation () =
  Alcotest.check_raises "trail >= 1"
    (Invalid_argument "Subseq.build: trail must be >= 1") (fun () ->
      ignore (Subseq.build ~trail:0 ~window:4 [| Array.make 10 1. |]))

let test_subseq_validation () =
  let series = [| Array.make 10 1. |] in
  Alcotest.check_raises "window too large"
    (Invalid_argument "Subseq.build: window exceeds a series length")
    (fun () -> ignore (Subseq.build ~window:11 series));
  let index = Subseq.build ~window:4 series in
  Alcotest.check_raises "bad query length"
    (Invalid_argument "Subseq: query length 3, expected 4") (fun () ->
      ignore (Subseq.range index ~query:(Array.make 3 1.) ~epsilon:1.))

(* --- Planner ------------------------------------------------------------------ *)

let test_planner_selectivity_monotone () =
  let d = dataset_of ~seed:71 ~count:200 ~n:64 in
  let stats = Planner.collect d in
  let previous = ref (-1.) in
  List.iter
    (fun epsilon ->
      let s = Planner.selectivity stats ~epsilon in
      Alcotest.(check bool) "within [0,1]" true (s >= 0. && s <= 1.);
      Alcotest.(check bool) "monotone" true (s >= !previous);
      previous := s)
    [ 0.; 1.; 2.; 4.; 8.; 12.; 16.; 100. ];
  Alcotest.(check (float 1e-9)) "negative epsilon" 0.
    (Planner.selectivity stats ~epsilon:(-1.));
  Alcotest.(check (float 1e-6)) "huge epsilon saturates" 1.
    (Planner.selectivity stats ~epsilon:1e6)

let test_planner_estimates_roughly_correct () =
  let d = dataset_of ~seed:72 ~count:300 ~n:64 in
  let stats = Planner.collect ~samples:4000 d in
  (* Compare the estimate against the true count for a median-ish eps. *)
  let entries = Dataset.entries d in
  let query = entries.(0).Dataset.normal in
  List.iter
    (fun epsilon ->
      let truth =
        Array.to_list entries
        |> List.filter (fun (e : Dataset.entry) ->
               Simq_series.Distance.euclidean e.Dataset.normal query <= epsilon)
        |> List.length
      in
      let estimate = Planner.estimate_answers stats ~cardinality:300 ~epsilon in
      (* Pairwise-sample estimates are coarse; require the right order of
         magnitude for mid-range epsilons. *)
      if truth >= 30 then
        Alcotest.(check bool)
          (Printf.sprintf "eps %g: estimate %.0f vs truth %d" epsilon estimate
             truth)
          true
          (estimate >= float_of_int truth /. 4.
          && estimate <= float_of_int truth *. 4.))
    [ 8.; 10.; 12. ]

let test_planner_choice_and_execution () =
  let d = dataset_of ~seed:73 ~count:150 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  let stats = Planner.collect d in
  (* Selective query: index plan; broad query: scan plan. Either way the
     answers match the direct index computation, and the registry's
     planner counters agree with the tally of chosen paths. *)
  let module Metrics = Simq_obs.Metrics in
  let query = query_for d Spec.Identity 2 in
  let plan epsilon =
    match Planner.range_resilient ~stats idx ~query ~epsilon with
    | Ok r -> r
    | Error e ->
      Alcotest.failf "planned range failed: %s" (Simq_fault.Error.kind e)
  in
  let tiny = plan 0.5 in
  Alcotest.(check bool) "tiny eps -> index" true
    (tiny.Planner.executed = Planner.Use_index);
  let huge = plan 50. in
  Alcotest.(check bool) "huge eps -> scan" true
    (huge.Planner.executed = Planner.Use_scan);
  let paths =
    Metrics.with_enabled true (fun () ->
        Metrics.reset ();
        let paths =
          List.map
            (fun epsilon ->
              let planned = plan epsilon in
              let direct = Kindex.range idx ~query ~epsilon in
              Alcotest.(check (list int)) "same answers"
                (ids_of direct.Kindex.answers)
                (ids_of planned.Planner.answers);
              planned.Planner.executed)
            [ 0.5; 5.; 50. ]
        in
        let total name = Metrics.counter_total (Metrics.counter name) in
        let tally p = List.length (List.filter (( = ) p) paths) in
        Alcotest.(check int) "registry index paths = tally"
          (tally Planner.Use_index)
          (total "simq_planner_path_index_total");
        Alcotest.(check int) "registry scan paths = tally"
          (tally Planner.Use_scan)
          (total "simq_planner_path_scan_total");
        paths)
  in
  Alcotest.(check bool) "both paths ran" true
    (List.mem Planner.Use_index paths && List.mem Planner.Use_scan paths)

(* --- property-based -------------------------------------------------------------- *)

let arb_setup =
  QCheck.make
    ~print:(fun (seed, eps, qseed) ->
      Printf.sprintf "seed=%d eps=%g qseed=%d" seed eps qseed)
    QCheck.Gen.(
      let* seed = int_range 0 1000 in
      let* eps = float_range 0.1 15. in
      let* qseed = int_range 0 1000 in
      return (seed, eps, qseed))

let prop_no_false_dismissals_identity =
  QCheck.Test.make ~name:"Lemma 1: index answers = reference (identity)"
    ~count:25 arb_setup (fun (seed, epsilon, qseed) ->
      let d = dataset_of ~seed ~count:60 ~n:32 in
      let idx = Kindex.build ~max_fill:8 d in
      let query = query_for d Spec.Identity qseed in
      let expected = Seqscan.reference d ~query ~epsilon in
      let actual = Kindex.range idx ~query ~epsilon in
      ids_of expected = ids_of actual.Kindex.answers)

let prop_no_false_dismissals_mavg =
  QCheck.Test.make ~name:"Lemma 1: index answers = reference (mavg)"
    ~count:25 arb_setup (fun (seed, epsilon, qseed) ->
      let d = dataset_of ~seed ~count:60 ~n:32 in
      let idx = Kindex.build ~max_fill:8 d in
      let spec = Spec.Moving_average (1 + (qseed mod 10)) in
      let query = query_for d spec qseed in
      let expected = Seqscan.reference ~spec d ~query ~epsilon in
      let actual = Kindex.range ~spec idx ~query ~epsilon in
      ids_of expected = ids_of actual.Kindex.answers)

let prop_subseq_exact =
  QCheck.Test.make ~name:"subsequence range = brute force" ~count:15
    arb_setup (fun (seed, epsilon, qseed) ->
      let epsilon = epsilon /. 4. in
      let series = Generator.random_walks ~seed ~count:6 ~n:48 in
      let window = 12 in
      let index = Subseq.build ~window series in
      let state = Random.State.make [| qseed |] in
      let sid = Random.State.int state 6 in
      let off = Random.State.int state (48 - window + 1) in
      let query =
        Simq_workload.Queries.perturb state
          (Series.subsequence series.(sid) ~pos:off ~len:window)
          ~amount:0.5
      in
      let expected =
        brute_force_subseq series ~window ~query ~epsilon
        |> List.map (fun (s, o, _) -> (s, o))
      in
      let hits, _ = Subseq.range index ~query ~epsilon in
      expected
      = List.map (fun h -> (h.Subseq.series_id, h.Subseq.offset)) hits)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_no_false_dismissals_identity;
      prop_no_false_dismissals_mavg;
      prop_subseq_exact;
    ]

let () =
  Alcotest.run "simq_tsindex"
    [
      ( "spec",
        [
          Alcotest.test_case "stretch predicts spectrum" `Quick
            test_spec_stretch_predicts_spectrum;
          Alcotest.test_case "output length" `Quick test_spec_output_length;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "preparation" `Quick test_dataset_preparation;
          Alcotest.test_case "rejects mixed lengths" `Quick
            test_dataset_rejects_mixed_lengths;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "flat kernel = boxed formula, bit for bit" `Quick
            test_flat_kernel_matches_boxed;
          Alcotest.test_case "row kernel = boxed formula, bit for bit" `Quick
            test_row_kernel_matches_boxed;
          Alcotest.test_case "rows follow their order" `Quick test_rows_order;
          Alcotest.test_case "dist_within: exact within, a bound beyond" `Quick
            test_dist_within;
          Alcotest.test_case "flat spectrum = fft_real of the normal form"
            `Quick test_flat_spectrum_is_fft;
        ] );
      ( "range",
        [
          Alcotest.test_case "matches reference for every spec/representation"
            `Quick test_range_matches_reference;
          Alcotest.test_case "rejects bad query lengths" `Quick
            test_range_rejects_bad_query_length;
          Alcotest.test_case "prunes candidates" `Quick test_range_prunes;
          Alcotest.test_case "index invariants" `Quick test_rtree_of_index_is_valid;
          Alcotest.test_case "k=3 configuration" `Quick test_range_with_k3_config;
        ] );
      ( "nearest",
        [
          Alcotest.test_case "matches brute force" `Quick
            test_nearest_matches_brute_force;
          Alcotest.test_case "matches the kernel's linear selection" `Quick
            test_nearest_matches_kernel_selection;
          Alcotest.test_case "finds inserted series" `Quick
            test_nearest_finds_inserted;
          Alcotest.test_case "checked charges" `Quick
            test_nearest_checked_charges;
          Alcotest.test_case "checked retries a node fault" `Quick
            test_nearest_checked_retries_fault;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "insert visible to queries" `Quick
            test_kindex_insert_visible;
          Alcotest.test_case "insert validates length" `Quick
            test_kindex_insert_rejects_bad_length;
          Alcotest.test_case "delete" `Quick test_kindex_delete;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "mean/std windows (GK95)" `Quick
            test_range_mean_std_constraints;
          Alcotest.test_case "unnormalised query" `Quick
            test_range_unnormalised_query;
        ] );
      ( "subsequence",
        [
          Alcotest.test_case "range = brute force" `Quick
            test_subseq_range_matches_brute_force;
          Alcotest.test_case "nearest" `Quick test_subseq_nearest;
          Alcotest.test_case "checked nearest retries a node fault" `Quick
            test_subseq_nearest_checked_retries_fault;
          Alcotest.test_case "paper example 1.2 floor" `Quick
            test_subseq_paper_example_12;
          Alcotest.test_case "validation" `Quick test_subseq_validation;
          Alcotest.test_case "trails match point layout" `Quick
            test_subseq_trails_match_points;
          Alcotest.test_case "trail validation" `Quick
            test_subseq_trail_validation;
        ] );
      ( "seqscan",
        [
          Alcotest.test_case "variants agree" `Quick test_seqscan_variants_agree;
          Alcotest.test_case "counts page reads" `Quick
            test_seqscan_counts_page_reads;
        ] );
      ( "join",
        [
          Alcotest.test_case "methods agree" `Quick test_join_methods_agree;
          Alcotest.test_case "untransformed matches identity" `Quick
            test_join_untransformed_matches_identity;
          Alcotest.test_case "smoothing admits more pairs" `Quick
            test_join_transformed_finds_more_smoothed_pairs;
          Alcotest.test_case "checked band charges its windows" `Quick
            test_join_checked_charges;
        ] );
      ( "planner",
        [
          Alcotest.test_case "selectivity monotone" `Quick
            test_planner_selectivity_monotone;
          Alcotest.test_case "estimates roughly correct" `Quick
            test_planner_estimates_roughly_correct;
          Alcotest.test_case "choice and execution" `Quick
            test_planner_choice_and_execution;
        ] );
      ("properties", properties);
    ]
