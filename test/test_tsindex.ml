open Simq_tsindex
module Series = Simq_series.Series
module Generator = Simq_series.Generator
module Coords = Simq_geometry.Coords

let dataset_of ~seed ~count ~n =
  Dataset.of_series ~name:"test"
    (Generator.random_walks ~seed ~count ~n)

let ids_of answers = List.map fst answers

let check_same_answers msg expected actual =
  Alcotest.(check (list int)) (msg ^ ": ids") (ids_of expected) (ids_of actual);
  List.iter2
    (fun (_, d1) (_, d2) ->
      Alcotest.(check (float 1e-6)) (msg ^ ": distance") d1 d2)
    expected actual

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A flat buffer's doubles as a float array, and a float array as a
   flat buffer. *)
let floats (x : Simq_dsp.Flat.t) =
  Array.init (Bigarray.Array1.dim x) (fun i -> x.{i})

let flat a = Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout a

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
     equal the DFT of the time-domain transformation over the stretch's
     coefficients 0 .. n/2, the weighted half's. *)
  let s = Simq_series.Normal_form.normalise
      (Generator.random_walk (Random.State.make [| 2 |]) 32) in
  let spectrum = Simq_dsp.Fft.fft_real s in
  List.iter
    (fun spec ->
      let n = 32 in
      let stretch = Simq_dsp.Flat.to_cpx (Spec.stretch spec ~n) in
      let h = Simq_dsp.Fft.half n in
      Alcotest.(check int) (Spec.name spec ^ " stretch length") h
        (Array.length stretch);
      let predicted =
        Simq_dsp.Cpx.mul_arrays stretch (Array.sub spectrum 0 h)
      in
      let actual = Simq_dsp.Fft.fft_real (Spec.apply_series spec s) in
      let actual_prefix = Array.sub actual 0 h in
      Alcotest.(check bool)
        (Spec.name spec ^ " stretch = DFT of time-domain op")
        true
        (Simq_dsp.Cpx.close_arrays ~eps:1e-6 predicted actual_prefix))
    all_specs

(* The stretch every reader shares ([Spec.stretch]'s memo) holds the
   doubles of the boxed formula computed fresh — the transfer function
   through [Cpx], ones for id, minus ones for rev — at both lengths,
   also after the readers (index range and NN, scan, join scan, sketch
   funnel) have used it: no reader writes to it. *)
let test_spec_stretch_shared () =
  let module Cpx = Simq_dsp.Cpx in
  let module Flat = Simq_dsp.Flat in
  let module Window = Simq_dsp.Window in
  let specs =
    [ Spec.Identity; Spec.Reverse ]
    @ List.init 6 (fun i -> Spec.Moving_average (i + 2))
    @ List.init 6 (fun i -> Spec.Weighted_ma (Window.ascending (i + 2)))
  in
  let boxed spec ~n =
    match spec with
    | Spec.Identity -> Array.make n Cpx.one
    | Spec.Reverse -> Array.make n (Cpx.of_float (-1.))
    | Spec.Moving_average m -> Flat.to_cpx (Window.transfer n (Window.uniform m))
    | Spec.Weighted_ma w -> Flat.to_cpx (Window.transfer n w)
    | Spec.Warp _ -> assert false
  in
  let check_all label =
    List.iter
      (fun n ->
        List.iter
          (fun spec ->
            let h = Simq_dsp.Fft.half n in
            let expected = Array.sub (boxed spec ~n) 0 h
            and shared = Spec.stretch spec ~n in
            Alcotest.(check int) "length" h (Flat.length shared);
            Array.iteri
              (fun f (z : Cpx.t) ->
                let c = Flat.coeff shared f in
                if not
                     (same_bits z.Complex.re c.Complex.re
                     && same_bits z.Complex.im c.Complex.im)
                then
                  Alcotest.failf "%s: %s n=%d coefficient %d differs" label
                    (Spec.name spec) n f)
              expected)
          specs)
      [ 128; 1024 ]
  in
  check_all "first use";
  let n = 128 in
  let d = dataset_of ~seed:31 ~count:60 ~n in
  let idx = Kindex.build ~max_fill:8 d in
  let sketch = Simq_sketch.create d in
  List.iter
    (fun spec ->
      let query = query_for d spec 3 in
      ignore
        (Kindex.range ~spec ~sketch:(fun q -> Simq_sketch.funnel sketch ~spec ~query:q)
           idx ~query ~epsilon:6.);
      ignore (Kindex.nearest ~spec idx ~query ~k:3);
      ignore (Seqscan.range_early_abandon ~spec d ~query ~epsilon:6.);
      ignore (Join.scan_early_abandon ~spec idx ~epsilon:1.);
      ignore (Join.scan_full ~spec idx ~epsilon:1.))
    specs;
  check_all "after the readers";
  (* Equal specs share one buffer: a second [Kindex.prepare] of an equal
     (separately built) spec allocates less than one stretch. *)
  let n = 1024 in
  let d = dataset_of ~seed:32 ~count:20 ~n in
  let idx = Kindex.build ~max_fill:8 d in
  let spec () = Spec.Weighted_ma (Window.triangular 9) in
  ignore (Kindex.prepare idx (spec ()));
  let before = Gc.minor_words () in
  ignore (Kindex.prepare idx (spec ()));
  let words = Gc.minor_words () -. before in
  if words >= float_of_int (2 * n) then
    Alcotest.failf "second prepare allocates %.0f words (a stretch: %d)" words
      (2 * n);
  Alcotest.(check bool) "one buffer" true
    (Spec.stretch (spec ()) ~n == Spec.stretch (spec ()) ~n)

(* First use from two domains at once: every domain gets the doubles of
   a fresh computation, and one buffer per spec. *)
let test_spec_stretch_two_domains () =
  let module Flat = Simq_dsp.Flat in
  let module Window = Simq_dsp.Window in
  let module Pool = Simq_parallel.Pool in
  let n = 128 in
  (* Windows no other test names, so each first use happens here. *)
  let spec j = Spec.Weighted_ma (Window.custom [| float_of_int (j + 3); 1.; 2. |]) in
  let pool = Pool.create ~domains:2 in
  let got =
    Pool.map_array ~pool ~chunk:1
      (fun j -> (j, Spec.stretch (spec j) ~n))
      (Array.init 64 (fun i -> i mod 8))
  in
  Array.iter
    (fun (j, s) ->
      let fresh =
        Window.transfer n (Window.custom [| float_of_int (j + 3); 1.; 2. |])
      in
      Alcotest.(check bool)
        (Printf.sprintf "window %d: fresh doubles" j)
        true
        (Array.for_all2 same_bits
           (Array.sub (floats fresh) 0 (2 * Simq_dsp.Fft.half n))
           (floats s));
      Alcotest.(check bool)
        (Printf.sprintf "window %d: one buffer" j)
        true
        (s == Spec.stretch (spec j) ~n))
    got

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
        (Simq_series.Normal_form.is_normal (Dataset.normal d e.Dataset.id));
      Alcotest.(check (float 1e-9)) "coefficient 0 is zero" 0.
        (Simq_dsp.Cpx.abs
           (Simq_dsp.Flat.coeff (Dataset.spectrum d e.Dataset.id) 0)))
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

(* [heads_of spectra] is the head table of separate spectra: spectrum
   [r]'s first [Flat.head_width] coefficients from coefficient
   [r·head_width], zero beyond its length. *)
let heads_of spectra =
  let module Flat = Simq_dsp.Flat in
  let w = Flat.head_width in
  let heads = Flat.zeros (w * Array.length spectra) in
  Array.iteri
    (fun r x ->
      Flat.blit x ~pos:0 heads ~off:(w * r) ~len:(Int.min w (Flat.length x)))
    spectra;
  heads

(* [Flat.rows] over separate spectra: laid end to end in one buffer,
   spectrum [r] in slot [r], with their head table. *)
let rows_of ~stretch ?order spectra =
  let module Flat = Simq_dsp.Flat in
  Flat.rows ~stretch ?order ~heads:(heads_of spectra)
    (flat (Array.concat (List.map floats (Array.to_list spectra))))
    (Array.init (Array.length spectra) Fun.id)

let test_flat_kernel_matches_boxed () =
  let module Flat = Simq_dsp.Flat in
  let n = 64 in
  let d = dataset_of ~seed:12 ~count:12 ~n in
  let entries = Dataset.entries d in
  let spectrum (e : Dataset.entry) = Dataset.spectrum d e.Dataset.id in
  let width = Dataset.width d in
  let boxed = Array.map (fun e -> Flat.to_cpx (spectrum e)) entries in
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
    (fun flat_stretch ->
      let stretch = Option.map Flat.to_cpx flat_stretch in
      let check i j limit =
        let sum, abandoned, touched =
          boxed_sq_dist ~stretch ~limit boxed.(i) boxed.(j)
        in
        let acc = Flat.acc () in
        let flat_touched =
          Flat.sq_dist ~stretch:flat_stretch ~limit ~lo:0 ~hi:width
            (spectrum entries.(i)) 0 (spectrum entries.(j)) 0 acc
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
  let x = spectrum entries.(0) and y = spectrum entries.(1) in
  let stretch = Some (Spec.stretch (Spec.Moving_average 4) ~n) in
  let acc = Flat.acc () in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Flat.sq_dist ~stretch ~limit:infinity ~lo:0 ~hi:width x 0 y 0 acc)
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
  let dist_within ~stretch ~within ~lo ~hi x xo y yo acc =
    let cell = Flat.acc () in
    cell.Flat.sum <- within;
    Flat.dist_within ~stretch ~lo ~hi x xo y yo acc ~within:cell;
    cell.Flat.sum
  in
  let x = flat [| 1.; 1.; 1.; 0.; 0.; 0.; 0.; 0. |] and y = Flat.zeros 4 in
  let within = sqrt 3. in
  Alcotest.(check bool) "the limit rounds below the sum" true
    (within *. within < 3.);
  List.iter
    (fun (lo, head_sum) ->
      let acc = Flat.acc () in
      acc.Flat.sum <- head_sum;
      let d = dist_within ~stretch:None ~within ~lo ~hi:4 x 0 y 0 acc in
      Alcotest.(check bool)
        (Printf.sprintf "rounding case from %d: exact" lo)
        true (same_bits d within))
    [ (0, 0.); (1, 2.) ];
  let n = 32 in
  let d = dataset_of ~seed:14 ~count:8 ~n in
  let entries = Dataset.entries d in
  let spectrum (e : Dataset.entry) = Dataset.spectrum d e.Dataset.id in
  let stretch = Some (Spec.stretch (Spec.Moving_average 3) ~n) in
  let width = Dataset.width d in
  let checked = ref 0 in
  Array.iter
    (fun (a : Dataset.entry) ->
      Array.iter
        (fun (b : Dataset.entry) ->
          let acc = Flat.acc () in
          ignore
            (Flat.sq_dist ~stretch ~limit:infinity ~lo:0 ~hi:width
               (spectrum a) 0 (spectrum b) 0 acc);
          let exact = sqrt acc.Flat.sum in
          List.iter
            (fun within ->
              let acc = Flat.acc () in
              let head =
                Flat.sq_dist ~stretch ~limit:infinity ~lo:0 ~hi:4
                  (spectrum a) 0 (spectrum b) 0 acc
              in
              let d =
                dist_within ~stretch ~within ~lo:head ~hi:width
                  (spectrum a) 0 (spectrum b) 0 acc
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
            flat
              (Array.init
                 (2 * Simq_dsp.Fft.half n)
                 (fun _ -> Random.State.float state 2. -. 1.)))
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
          let stretch = Flat.to_cpx (Spec.stretch spec ~n) in
          let rows = rows_of ~stretch:(Flat.of_cpx stretch) spectra in
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
  let spectra = Array.init count (fun _ -> flat (Array.make 128 0.5)) in
  let rows =
    rows_of
      ~stretch:(Spec.stretch (Spec.Moving_average 4) ~n:64)
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
    Array.map
      (fun (e : Dataset.entry) -> Dataset.spectrum d e.Dataset.id)
      (Dataset.entries d)
  in
  let stretch = Spec.stretch (Spec.Moving_average 3) ~n:16 in
  let order = [| 4; 0; 8; 2; 6; 1; 3; 5; 7 |] in
  let plain = rows_of ~stretch spectra
  and sorted = rows_of ~stretch ~order spectra in
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
  let heads = heads_of spectra in
  Array.iteri
    (fun slot x ->
      Alcotest.(check (float 0.)) "sort_key = Complex.mul's real part"
        (Complex.mul (Flat.coeff stretch 1) (Flat.coeff x 1)).Complex.re
        (Flat.sort_key ~stretch heads ~slot))
    spectra;
  Alcotest.check_raises "sort_key past the head table"
    (Invalid_argument "Flat.sort_key: slot out of bounds")
    (fun () -> ignore (Flat.sort_key ~stretch heads ~slot:9));
  Alcotest.check_raises "order length"
    (Invalid_argument "Flat.rows: order length differs from the slots")
    (fun () -> ignore (rows_of ~stretch ~order:[| 0 |] spectra))

(* [key_order] is [Array.stable_sort] by [Float.compare] over the
   indices: ties by index, NaN (of either sign) first and equal to
   itself, [-0.] equal to [0.], the infinities at the ends — on lengths
   around its insertion runs and merges, keys drawn from pools small
   enough to repeat, sorted and reversed inputs, and all-equal keys.
   The keys are left as they were. *)
let test_key_order () =
  let module Flat = Simq_dsp.Flat in
  let state = Random.State.make [| 19 |] in
  let specials =
    [| nan; Float.neg nan; -0.; 0.; infinity; neg_infinity; Float.min_float;
       -.Float.min_float; Float.max_float; -.Float.max_float |]
  in
  let check label keys =
    let expected = Array.init (Array.length keys) Fun.id in
    Array.stable_sort (fun a b -> Float.compare keys.(a) keys.(b)) expected;
    let copy = Array.copy keys in
    Alcotest.(check (array int)) label expected (Flat.key_order keys);
    Alcotest.(check bool) (label ^ ": keys untouched") true
      (Array.for_all2
         (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
         copy keys)
  in
  List.iter
    (fun count ->
      List.iter
        (fun distinct ->
          let keys =
            Array.init count (fun _ ->
                if Random.State.int state 3 = 0 then
                  specials.(Random.State.int state (Array.length specials))
                else
                  float_of_int (Random.State.int state distinct - (distinct / 2))
                  /. 4.)
          in
          let label = Printf.sprintf "count %d, %d values" count distinct in
          check label keys;
          let sorted = Array.copy keys in
          Array.stable_sort Float.compare sorted;
          check (label ^ ", sorted") sorted;
          check (label ^ ", reversed")
            (Array.init count (fun i -> sorted.(count - 1 - i))))
        [ 1; 3; 50; 1_000_000 ];
      check (Printf.sprintf "count %d, all equal" count) (Array.make count 0.))
    [ 0; 1; 2; 3; 15; 16; 17; 31; 32; 33; 64; 100; 1067; 2500 ]

(* Each row is the weighted half of the normal form's spectrum:
   coefficients 0 .. n/2 of [fft_real], those with a twin of their own
   times fl(√2), bit for bit, at an even and an odd length. *)
let test_flat_spectrum_is_fft () =
  List.iter
    (fun n ->
      let d = dataset_of ~seed:13 ~count:8 ~n in
      Array.iter
        (fun (e : Dataset.entry) ->
          let reference =
            Simq_dsp.Fft.fft_real (Dataset.normal d e.Dataset.id)
          in
          let row = Dataset.spectrum d e.Dataset.id in
          Alcotest.(check int) "coefficients" ((n / 2) + 1)
            (Simq_dsp.Flat.length row);
          for f = 0 to (n / 2) do
            let z = reference.(f) and c = Simq_dsp.Flat.coeff row f in
            let w = if f > 0 && 2 * f < n then sqrt 2. else 1. in
            Alcotest.(check bool) "coefficient bit-identical" true
              (same_bits (w *. z.Complex.re) c.Complex.re
              && same_bits (w *. z.Complex.im) c.Complex.im)
          done)
        (Dataset.entries d))
    [ 48; 45 ]

(* Every feature coefficient needs a twin of its own, so that it is
   weighted alike at the data and the warped lengths: [2k < n]. *)
let test_feature_needs_twins () =
  let refused =
    Invalid_argument
      "Feature.validate: 2k must be smaller than the series length"
  in
  List.iter
    (fun (k, n) ->
      Alcotest.check_raises (Printf.sprintf "k=%d n=%d" k n) refused (fun () ->
          Feature.validate { Feature.default with Feature.k } ~n))
    [ (2, 4); (2, 3); (1, 2); (3, 6) ];
  List.iter
    (fun (k, n) -> Feature.validate { Feature.default with Feature.k } ~n)
    [ (2, 5); (1, 3); (3, 7) ];
  Alcotest.check_raises "the default k at n = 4" refused (fun () ->
      ignore (Kindex.build (dataset_of ~seed:1 ~count:5 ~n:4)))

(* Every relation holds rows of one length, so series of mixed lengths
   are refused before a data set could be prepared from them. *)
let test_dataset_rejects_mixed_lengths () =
  Alcotest.check_raises "unequal lengths"
    (Invalid_argument "Relation.of_rows: rows of unequal lengths") (fun () ->
      ignore
        (Dataset.of_series ~name:"bad" [| Array.make 8 1.; Array.make 16 1. |]))

(* --- Kindex range: exactness under every spec and representation ------------- *)

(* The index postfilter abandons at epsilon as the scan does: under id
   and mavg(4) its answers equal the early-abandon scan's and the full
   scan's, ids and distances bit for bit, at random thresholds and at
   thresholds set exactly to one entry's distance — among them entries
   whose squared distance lies above the rounded [epsilon²], where the
   abandoned sum must be completed to keep the entry. *)
let test_range_postfilter_abandons () =
  let module Flat = Simq_dsp.Flat in
  let n = 64 in
  let d = dataset_of ~seed:23 ~count:200 ~n in
  let idx = Kindex.build ~max_fill:8 d in
  let same label expected actual =
    Alcotest.(check (list int)) (label ^ ": ids") (ids_of expected)
      (ids_of actual);
    List.iter2
      (fun (_, a) (_, b) ->
        Alcotest.(check bool) (label ^ ": distance bits") true (same_bits a b))
      expected actual
  in
  let rounding_cases = ref 0 in
  List.iter
    (fun spec ->
      let query = query_for d spec 5 in
      let q = Dataset.prepare_query query in
      let stretch = Spec.stretch spec ~n and width = Dataset.width d in
      (* Every entry's distance, nearest first, with its full sum. *)
      let all =
        (Seqscan.range_full ~spec d ~query ~epsilon:1e9).Seqscan.answers
        |> List.map (fun (id, dist) ->
               let acc = Flat.acc () in
               ignore
                 (Flat.sq_dist ~stretch:(Some stretch) ~limit:infinity ~lo:0
                    ~hi:width (Dataset.spectra d)
                    (Dataset.slot d id * width)
                    q.Dataset.qspectrum 0 acc);
               (id, dist, acc.Flat.sum))
        |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b)
      in
      let exact =
        List.filteri (fun i _ -> i < 12) all
        |> List.map (fun (id, dist, sum) ->
               if dist *. dist < sum then incr rounding_cases;
               (Some id, dist))
      in
      List.iter
        (fun (must_hold, epsilon) ->
          let label = Printf.sprintf "%s eps=%h" (Spec.name spec) epsilon in
          let index = (Kindex.range ~spec idx ~query ~epsilon).Kindex.answers in
          let early =
            (Seqscan.range_early_abandon ~spec d ~query ~epsilon).Seqscan.answers
          in
          let full = (Seqscan.range_full ~spec d ~query ~epsilon).Seqscan.answers in
          same (label ^ " early scan") early index;
          same (label ^ " full scan") full index;
          match must_hold with
          | None -> ()
          | Some id ->
            Alcotest.(check bool) (label ^ ": boundary entry kept") true
              (List.mem id (ids_of index)))
        ((None, 0.) :: (None, 3.) :: (None, 5.5) :: exact))
    [ Spec.Identity; Spec.Moving_average 4 ];
  Alcotest.(check bool) "a threshold reaches the rounding case" true
    (!rounding_cases > 0)

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
                      Alcotest.(check (list (pair int (float 0.))))
                        (label ^ ": constrained scan = constrained index")
                        index.Kindex.answers scan.Seqscan.answers;
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
             (Spec.apply_series spec (Dataset.normal d e.Dataset.id))
             q.Dataset.qnormal ))
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
   ([Flat.sq_dist] over the row's coefficients), ordered by
   (distance, id): the traversal's answers must be these ids and these
   doubles, bit for bit. *)
let kernel_nearest ~spec d ~query ~k =
  let n = Dataset.series_length d in
  let q = Dataset.prepare_query query in
  let stretch =
    match spec with
    | Spec.Identity -> None
    | _ -> Some (Spec.stretch spec ~n)
  in
  Array.to_list (Dataset.entries d)
  |> List.map (fun (e : Dataset.entry) ->
         let acc = Simq_dsp.Flat.acc () in
         ignore
           (Simq_dsp.Flat.sq_dist ~stretch ~limit:infinity ~lo:0
              ~hi:(Dataset.width d) (Dataset.spectrum d e.Dataset.id) 0
              q.Dataset.qspectrum 0 acc);
         (sqrt acc.Simq_dsp.Flat.sum, e.Dataset.id))
  |> List.sort compare
  |> List.filteri (fun i _ -> i < k)

let nn_pairs answers =
  List.map (fun (id, d) -> (d, id)) answers

let nn_ok what = function
  | Ok answers -> answers
  | Error e -> Alcotest.failf "%s failed: %s" what (Simq_fault.Error.kind e)

(* Every series appears twice, so equal distances come in pairs and
   the k = 1 and k = 5 boundaries cut through ties (a query equal to a
   stored series ties at distance 0); n = 3 and 5 sit below the head
   width (their rows hold 2 and 3 coefficients), 32 above it
   (smoothing windows wider than n do not apply). Each case runs
   through [nearest], [nearest_checked] under a finite budget, and a
   4-shard executor (plain and checked) at 1 and 2 domains. Complex stretches are only
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
          let config =
            { Feature.k = Int.min 2 ((n - 1) / 2); representation }
          in
          let idx = Kindex.build ~config ~max_fill:4 d in
          let sh =
            Shard.create ~config ~max_fill:4 ~shards:4 d
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
                                idx ~query ~k))
                            .Kindex.neighbours;
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
    [ 3; 5; 32 ]

(* NEAREST allocates per query, not per entry: the traversal queues
   the tree's own entries and writes every node bound, key and
   refinement into one float cell, so what a query allocates is its
   preparation (normal form, spectrum, query features) and its answer
   list — about 3,200 minor words under the identity and 4,000 under
   a moving average here. The traversal that boxed its queue items
   and bounds allocated 25,400 and 32,700 (over four times the bound)
   on the same data. *)
let test_nearest_allocation () =
  let d = dataset_of ~seed:67 ~count:3000 ~n:64 in
  let idx = Kindex.build d in
  let entries = Dataset.entries d in
  List.iter
    (fun spec ->
      let queries =
        Array.init 20 (fun i ->
            let base = entries.(i * 37 mod Array.length entries) in
            let state = Random.State.make [| i |] in
            Array.map
              (fun v -> v +. Random.State.float state 2. -. 1.)
              base.Dataset.series)
      in
      ignore (Kindex.nearest ~spec idx ~query:queries.(0) ~k:8);
      let before = Gc.minor_words () in
      Array.iter
        (fun query -> ignore (Kindex.nearest ~spec idx ~query ~k:8))
        queries;
      let per_query = (Gc.minor_words () -. before) /. 20. in
      if per_query >= 6000. then
        Alcotest.failf "%s: %.0f minor words per NEAREST (bound 6000)"
          (Spec.name spec) per_query)
    [ Spec.Identity; Spec.Moving_average 4 ]

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

(* The index join with no budget, which must answer. *)
let index_join ?spec idx ~epsilon =
  match Join.index ?spec idx ~epsilon with
  | Ok r -> r
  | Error e -> Alcotest.failf "index join: %s" (Simq_fault.Error.to_string e)

let test_join_methods_agree () =
  let d = dataset_of ~seed:23 ~count:60 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  List.iter
    (fun (spec, epsilon) ->
      let a = Join.scan_full ~spec idx ~epsilon in
      let b = Join.scan_early_abandon ~spec idx ~epsilon in
      let dd = index_join ~spec idx ~epsilon in
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

(* A pair whose distance is exactly ε stays joined by every method, also
   when its squared sum lies above the rounded [ε²] (the rounding case).
   For each spec the test picks the first pair in the rounding case of
   the scans' own arithmetic — both spectra stretched, then
   {!Flat.sq_dist}, or the time-domain sum under warp — whose
   time-domain distance, the index join's, is not above it, and sets ε
   to the scans' distance. *)
let test_join_keeps_pair_at_epsilon () =
  let module Flat = Simq_dsp.Flat in
  let d = dataset_of ~seed:23 ~count:40 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  let n = Dataset.series_length d and count = Dataset.cardinality d in
  List.iter
    (fun spec ->
      let label = Spec.name spec in
      let normal id =
        Spec.apply_series spec (Dataset.normal d id)
      in
      let time_sum i j =
        let a = normal i and b = normal j in
        let sum = ref 0. in
        Array.iteri
          (fun t x ->
            let e = x -. b.(t) in
            sum := !sum +. (e *. e))
          a;
        !sum
      in
      let scan_sum i j =
        match spec with
        | Spec.Warp _ -> time_sum i j
        | _ ->
          let stretch = Spec.stretch spec ~n in
          let stretched id =
            let x = Flat.create n in
            Flat.stretch_into ~stretch (Dataset.spectrum d id) x ~off:0;
            x
          in
          let acc = Flat.acc () in
          ignore
            (Flat.sq_dist ~stretch:None ~limit:infinity ~lo:0 ~hi:n
               (stretched i) 0 (stretched j) 0 acc);
          acc.Flat.sum
      in
      let boundary = ref None in
      for i = 0 to count - 1 do
        for j = i + 1 to count - 1 do
          if Option.is_none !boundary then begin
            let sum = scan_sum i j in
            let dist = sqrt sum in
            if dist *. dist < sum && sqrt (time_sum i j) <= dist then
              boundary := Some ((i, j), dist)
          end
        done
      done;
      match !boundary with
      | None -> Alcotest.failf "%s: no pair in the rounding case" label
      | Some (pair, epsilon) ->
        let a = canonical_pairs (Join.scan_full ~spec idx ~epsilon).Join.pairs in
        let b =
          canonical_pairs (Join.scan_early_abandon ~spec idx ~epsilon).Join.pairs
        in
        let c =
          canonical_pairs (index_join ~spec idx ~epsilon).Join.pairs
        in
        Alcotest.(check bool) (label ^ ": full scan keeps the pair") true
          (List.mem pair a);
        Alcotest.(check (list (pair int int))) (label ^ ": a = b") a b;
        Alcotest.(check (list (pair int int))) (label ^ ": a = d") a c)
    [ Spec.Identity; Spec.Moving_average 4; Spec.Warp 2 ]

let test_join_untransformed_matches_identity () =
  let d = dataset_of ~seed:29 ~count:50 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  let c = index_join idx ~epsilon:3. in
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

(* The index join charges its budget like RANGE: every node visit of
   its inner range queries one node access, every candidate one
   comparison. A budget of exactly the unbudgeted run's counts answers
   with its pairs; one less of either fails typed. *)
let test_index_join_charges () =
  let module Budget = Simq_fault.Budget in
  let d = dataset_of ~seed:41 ~count:120 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  List.iter
    (fun (spec, epsilon) ->
      let label = Spec.name spec in
      let r = index_join ~spec idx ~epsilon in
      let run ?max_comparisons ?max_node_accesses () =
        match
          Join.index ~spec
            ~budget:(Budget.create ?max_comparisons ?max_node_accesses ())
            idx ~epsilon
        with
        | Ok r' ->
          Alcotest.(check (list (pair int int))) (label ^ ": budgeted pairs")
            r.Join.pairs r'.Join.pairs;
          "ok"
        | Error e -> Simq_fault.Error.kind e
      in
      let nodes = r.Join.node_accesses
      and comparisons = r.Join.distance_computations in
      Alcotest.(check string) (label ^ ": the run's own counts")
        "ok"
        (run ~max_node_accesses:nodes ~max_comparisons:comparisons ());
      Alcotest.(check string) (label ^ ": one node access short")
        "budget_exceeded:node_accesses"
        (run ~max_node_accesses:(nodes - 1) ~max_comparisons:comparisons ());
      Alcotest.(check string) (label ^ ": one comparison short")
        "budget_exceeded:comparisons"
        (run ~max_node_accesses:nodes ~max_comparisons:(comparisons - 1) ()))
    [
      (Spec.Identity, 2.);
      (Spec.Moving_average 8, 1.);
      (Spec.Reverse, 2.5);
      (Spec.Warp 2, 3.);
    ]

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
      (fun (id, _) ->
        Float.abs (Dataset.mean d id -. qmean) <= mean_window
        && Dataset.std d id >= qstd /. std_band
        && Dataset.std d id <= qstd *. std_band)
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
               (Spec.apply_series spec (Dataset.normal d e.Dataset.id))
               query
           in
           if dist <= epsilon then Some e.Dataset.id else None)
  in
  Alcotest.(check (list int)) "matches direct computation" expected
    (ids_of result.Kindex.answers)

(* --- Spectrum layout ----------------------------------------------------------- *)

(* The layout of the spectrum buffer moves memory, never a double:
   one data set laid out in its tree's leaf order (what [Kindex.build]
   does) and then in id order answers every reader bit for bit alike —
   NEAREST (answers, distances, node accesses, keys and refinements),
   RANGE (answers, candidates, node accesses), the scan (answers and
   its counters), PAIRS methods (a) and (b) (pairs and comparisons)
   and the sketch bounds. *)
let test_layout_invariance () =
  let module Profile = Simq_obs.Profile in
  let d = dataset_of ~seed:68 ~count:240 ~n:32 in
  let idx = Kindex.build ~max_fill:8 d in
  let count = Dataset.cardinality d in
  let leaf_order = Array.init count (Dataset.id_at d) in
  Alcotest.(check bool) "the build moved slots" true
    (Array.exists (fun b -> b) (Array.mapi (fun s id -> s <> id) leaf_order));
  let sketch = Simq_sketch.create d in
  let bits = Int64.bits_of_float in
  let pairs answers =
    List.map (fun (id, x) -> (id, bits x)) answers
  in
  let specs = [ Spec.Identity; Spec.Moving_average 4; Spec.Reverse ] in
  let observe () =
    let tree = Kindex.tree idx in
    List.concat_map
      (fun spec ->
        let query = query_for d spec 5 in
        let profile = Profile.create () in
        let n0 = Simq_rtree.Rstar.node_accesses tree in
        let nn = Kindex.nearest ~spec ~profile idx ~query ~k:7 in
        let nodes = Simq_rtree.Rstar.node_accesses tree - n0 in
        let keys, refinements =
          match Profile.find profile "kindex.nearest" with
          | Some p -> (Profile.rows_in p, Profile.candidates p)
          | None -> Alcotest.fail "no kindex.nearest node"
        in
        let r = Kindex.range ~spec idx ~query ~epsilon:4. in
        let scan = Seqscan.range_early_abandon ~spec d ~query ~epsilon:4. in
        let q = Dataset.prepare_query query in
        let bounds =
          match Simq_sketch.nn_bound sketch ~spec ~query:q with
          | None -> []
          | Some b ->
            Array.to_list
              (Array.map (fun e -> bits (b e.Dataset.id)) (Dataset.entries d))
        in
        let join (j : Join.result) = (j.Join.pairs, j.Join.distance_computations) in
        [
          ( pairs nn,
            [ nodes; keys; refinements; r.Kindex.candidates;
              r.Kindex.node_accesses; scan.Seqscan.full_computations;
              scan.Seqscan.coefficients_touched ],
            pairs r.Kindex.answers @ pairs scan.Seqscan.answers,
            bounds,
            [ join (Join.scan_full ~spec idx ~epsilon:2.);
              join (Join.scan_early_abandon ~spec idx ~epsilon:2.) ] );
        ])
      specs
  in
  let leaf = observe () in
  Dataset.lay_out d (Array.init count Fun.id);
  let by_id = observe () in
  Alcotest.(check bool) "after the build: identical in both layouts" true
    (leaf = by_id);
  Dataset.lay_out d leaf_order;
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Dataset.lay_out: order is not a permutation of the ids")
    (fun () -> Dataset.lay_out d (Array.make count 0))

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

(* A scheduled fault reaches a checked traversal through the attempt's
   budget state: the first node visit (or page read) of the first
   attempt fails, the retry (a fresh state, a new ordinal) runs clean,
   and the answer is the fault-free one. *)
let first_visit_faults ?(pages = false) () =
  let module Injector = Simq_fault.Injector in
  let first = Injector.transient ~schedule:[ 1 ] () in
  Simq_fault.Budget.create
    ~faults:
      (if pages then Injector.create ~page_reads:first ~seed:5 ()
       else Injector.create ~node_accesses:first ~seed:5 ())
    ()

(* Every retry event of a profile, with the node that recorded it. *)
let retry_events profile =
  let module Profile = Simq_obs.Profile in
  let rec walk node =
    List.filter_map
      (fun e ->
        if String.starts_with ~prefix:"retry:" e then
          Some (Profile.name node, e)
        else None)
      (Profile.events node)
    @ List.concat_map walk (Profile.children node)
  in
  List.concat_map walk (Profile.roots profile)

let test_nearest_checked_retries_fault () =
  let d = dataset_of ~seed:67 ~count:120 ~n:64 in
  let idx = Kindex.build ~max_fill:8 d in
  let query = query_for d Spec.Identity 13 in
  let profile = Simq_obs.Profile.create () in
  match
    Kindex.nearest_checked ~budget:(first_visit_faults ()) ~profile idx ~query
      ~k:5
  with
  | Ok r ->
    Alcotest.(check (list (pair string string)))
      "one retry, on the NN node"
      [ ("kindex.nearest", "retry: attempt 1 abandoned") ]
      (retry_events profile);
    Alcotest.(check (list (pair (float 0.) int)))
      "fault-free answer"
      (nn_pairs (Kindex.nearest idx ~query ~k:5))
      (nn_pairs r.Kindex.neighbours)
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

(* The sampled distances are those between the entries' normal forms
   as [decompose] computes them: the same draws, the same doubles, so
   the same histogram bit for bit. *)
let test_planner_histogram_formula () =
  List.iter
    (fun n ->
      let batch =
        Array.mapi
          (fun i s -> if i mod 5 = 2 then Array.make n 1. else s)
          (Generator.random_walks ~seed:n ~count:60 ~n)
      in
      let d = Dataset.of_series ~name:"h" batch in
      let samples = 700 and seed = 9 and buckets = 16 in
      let width, counts =
        Planner.histogram (Planner.collect ~samples ~seed ~buckets d)
      in
      let normals =
        Array.map
          (fun s -> (Simq_series.Normal_form.decompose s).normalised)
          batch
      in
      let state = Random.State.make [| seed |] in
      let distances =
        Array.init samples (fun _ ->
            let i = Random.State.int state 60 in
            let j = Random.State.int state 60 in
            Simq_series.Distance.euclidean normals.(i) normals.(j))
      in
      let top = Array.fold_left Float.max 0. distances in
      let expected_width = top /. float_of_int buckets in
      let expected = Array.make buckets 0 in
      Array.iter
        (fun d ->
          let b = min (buckets - 1) (int_of_float (d /. expected_width)) in
          expected.(b) <- expected.(b) + 1)
        distances;
      Alcotest.(check int64) "bucket width bits"
        (Int64.bits_of_float expected_width) (Int64.bits_of_float width);
      Alcotest.(check (array int)) "counts" expected counts)
    [ 128; 100; 7 ]

let test_planner_estimates_roughly_correct () =
  let d = dataset_of ~seed:72 ~count:300 ~n:64 in
  let stats = Planner.collect ~samples:4000 d in
  (* Compare the estimate against the true count for a median-ish eps. *)
  let entries = Dataset.entries d in
  let query = Dataset.normal d 0 in
  List.iter
    (fun epsilon ->
      let truth =
        Array.to_list entries
        |> List.filter (fun (e : Dataset.entry) ->
               Simq_series.Distance.euclidean (Dataset.normal d e.Dataset.id) query
               <= epsilon)
        |> List.length
      in
      let _, estimate = Planner.choose stats ~cardinality:300 ~epsilon in
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
    (List.mem Planner.Use_index paths && List.mem Planner.Use_scan paths);
  (* A retried access path records its retry once, on the operator
     that retried: the index path on the planner node (its own node
     is per attempt), the scan on its [seqscan.range] node. *)
  List.iter
    (fun (epsilon, pages, path, node, children) ->
      let profile = Simq_obs.Profile.create () in
      match
        Planner.range_resilient ~stats ~budget:(first_visit_faults ~pages ())
          ~profile idx ~query ~epsilon
      with
      | Ok r ->
        Alcotest.(check bool) "planned path kept" true
          (r.Planner.executed = path && not r.Planner.degraded);
        Alcotest.(check (list int)) "fault-free answers"
          (ids_of (Kindex.range idx ~query ~epsilon).Kindex.answers)
          (ids_of r.Planner.answers);
        Alcotest.(check (list (pair string string)))
          (node ^ " records the retry once")
          [ (node, "retry: attempt 1 abandoned") ]
          (retry_events profile);
        (* The abandoned attempt's nodes sit beside the retried ones. *)
        Alcotest.(check (list string)) "attempts are siblings" children
          (match Simq_obs.Profile.find profile node with
          | Some n -> List.map Simq_obs.Profile.name (Simq_obs.Profile.children n)
          | None -> [])
      | Error e ->
        Alcotest.failf "retry should absorb it: %s" (Simq_fault.Error.kind e))
    [ (0.5, false, Planner.Use_index, "planner",
       [ "plan"; "kindex.range"; "kindex.range" ]);
      (50., true, Planner.Use_scan, "seqscan.range",
       [ "seqscan.io"; "seqscan.io"; "seqscan.compute" ]) ]

(* --- prepared image ---------------------------------------------------------------- *)

module Relation = Simq_storage.Relation
module Rstar = Simq_rtree.Rstar
module Node = Simq_rtree.Node
module Bulk = Simq_rtree.Bulk

(* Random walks with every fifth series constant (std = 0). *)
let image_batch ~seed ~count ~n =
  Array.mapi
    (fun i s -> if i mod 5 = 2 then Array.make n (float_of_int i) else s)
    (Generator.random_walks ~seed ~count ~n)

let save_relation path batch =
  Relation.save (Relation.of_series ~name:"image" batch) path

(* [f] gets a relation file of [batch]; the file and whatever stands at
   its image path are removed afterwards. *)
let with_relation_file batch f =
  let path = Filename.temp_file "simq-image" ".rel" in
  let image = Image.path path in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      if Sys.file_exists image then
        if Sys.is_directory image then Sys.rmdir image else Sys.remove image)
    (fun () ->
      save_relation path batch;
      f path)

let open_path path = Kindex.open_file ~relation:(Relation.load path) path
let built_of path = Kindex.build (Dataset.of_relation (Relation.load path))

let inode path = (Unix.stat path).Unix.st_ino

let check_bits msg a b =
  Alcotest.(check bool)
    msg true
    (Array.length a = Array.length b && Array.for_all2 same_bits a b)

let check_rect msg (a : Simq_geometry.Rect.t) (b : Simq_geometry.Rect.t) =
  check_bits (msg ^ ": lo") a.Simq_geometry.Rect.lo b.Simq_geometry.Rect.lo;
  check_bits (msg ^ ": hi") a.Simq_geometry.Rect.hi b.Simq_geometry.Rect.hi

let rec check_node msg (a : int Node.node) (b : int Node.node) =
  Alcotest.(check int) (msg ^ ": level") a.Node.level b.Node.level;
  check_rect (msg ^ ": mbr") a.Node.mbr b.Node.mbr;
  Alcotest.(check int)
    (msg ^ ": fan-out")
    (List.length a.Node.entries)
    (List.length b.Node.entries);
  List.iter2
    (fun ea eb ->
      match (ea, eb) with
      | Node.Child ca, Node.Child cb -> check_node msg ca cb
      | Node.Data da, Node.Data db ->
        check_rect (msg ^ ": data") da.rect db.rect;
        Alcotest.(check int) (msg ^ ": id") da.value db.value
      | _ -> Alcotest.fail (msg ^ ": entry kinds differ"))
    a.Node.entries b.Node.entries

(* The head table is probed through [head_sq_dist] against a zero
   query (each row's energy) and a random one. *)
let head_probes n =
  let st = Random.State.make [| n |] in
  [ Simq_dsp.Flat.zeros n;
    flat (Array.init (2 * n) (fun _ -> Random.State.float st 2. -. 1.)) ]

let head_sums d s probes =
  let acc = Simq_dsp.Flat.acc () in
  List.concat_map
    (fun q ->
      let h = Dataset.head_sq_dist d ~stretch:None s q acc in
      [ float_of_int h; acc.Simq_dsp.Flat.sum ])
    probes
  |> Array.of_list

(* Entries, spectra, head rows, slots, and the tree node by node. *)
let check_same_index msg built opened =
  let db = Kindex.dataset built and dop = Kindex.dataset opened in
  let count = Dataset.cardinality db in
  Alcotest.(check int) (msg ^ ": cardinality") count (Dataset.cardinality dop);
  Array.iter2
    (fun (a : Dataset.entry) (b : Dataset.entry) ->
      Alcotest.(check int) (msg ^ ": id") a.Dataset.id b.Dataset.id;
      Alcotest.(check string) (msg ^ ": name") a.Dataset.name b.Dataset.name;
      check_bits (msg ^ ": series") a.Dataset.series b.Dataset.series;
      check_bits (msg ^ ": normal") (Dataset.normal db a.Dataset.id)
        (Dataset.normal dop b.Dataset.id);
      check_bits (msg ^ ": moments")
        [| a.Dataset.mean; a.Dataset.std |]
        [| b.Dataset.mean; b.Dataset.std |])
    (Dataset.entries db) (Dataset.entries dop);
  check_bits (msg ^ ": spectra")
    (floats (Dataset.spectra db))
    (floats (Dataset.spectra dop));
  let probes = head_probes (Dataset.series_length db) in
  for s = 0 to count - 1 do
    Alcotest.(check int) (msg ^ ": slot order") (Dataset.id_at db s)
      (Dataset.id_at dop s);
    check_bits (msg ^ ": head row") (head_sums db s probes)
      (head_sums dop s probes)
  done;
  let tb = Kindex.tree built and top = Kindex.tree opened in
  Alcotest.(check (array (array int)))
    (msg ^ ": shape") (Bulk.shape tb) (Bulk.shape top);
  Alcotest.(check (pair int int))
    (msg ^ ": size and fill")
    (Rstar.size tb, Rstar.min_fill tb)
    (Rstar.size top, Rstar.min_fill top);
  Alcotest.(check bool)
    (msg ^ ": opened tree valid") true
    (Simq_rtree.Check.is_valid top);
  check_node msg (Rstar.root tb) (Rstar.root top)

let check_same_rows msg a b =
  Alcotest.(check (list int)) (msg ^ ": ids") (ids_of a) (ids_of b);
  check_bits (msg ^ ": distances")
    (Array.of_list (List.map snd a))
    (Array.of_list (List.map snd b))

(* RANGE with and without MEAN/STD, NEAREST, and PAIRS by scan,
   scan-early and index, under id, rev, mavg, wma and warp. *)
let check_same_queries msg built opened =
  let d = Kindex.dataset built in
  let n = Dataset.series_length d in
  let epsilon = 0.5 *. sqrt (float_of_int n) in
  List.iter
    (fun spec ->
      let msg = msg ^ " " ^ Spec.name spec in
      let query = query_for d spec 3 in
      let range ?mean_window ?std_band idx =
        (Kindex.range ~spec ?mean_window ?std_band idx ~query
           ~epsilon:(2. *. epsilon))
          .Kindex.answers
      in
      check_same_rows (msg ^ " range") (range built) (range opened);
      check_same_rows (msg ^ " range mean/std")
        (range ~mean_window:5. ~std_band:2. built)
        (range ~mean_window:5. ~std_band:2. opened);
      check_same_rows (msg ^ " nearest")
        (Kindex.nearest ~spec built ~query ~k:5)
        (Kindex.nearest ~spec opened ~query ~k:5);
      List.iter
        (fun (name, join) ->
          Alcotest.(check (list (pair int int)))
            (msg ^ " pairs " ^ name)
            (join built).Join.pairs (join opened).Join.pairs)
        [
          ("scan", fun idx -> Join.scan_full ~spec idx ~epsilon);
          ("scan-early", fun idx -> Join.scan_early_abandon ~spec idx ~epsilon);
          ("index", fun idx -> index_join ~spec idx ~epsilon);
        ])
    [
      Spec.Identity;
      Spec.Reverse;
      Spec.Moving_average 3;
      Spec.Weighted_ma (Simq_dsp.Window.triangular 3);
      Spec.Warp 2;
    ]

let prop_image_opens_bit_identical =
  QCheck.Test.make ~name:"opened from its image = built, bit for bit"
    ~count:9
    (QCheck.make
       ~print:(fun (n, count, seed) ->
         Printf.sprintf "n=%d count=%d seed=%d" n count seed)
       QCheck.Gen.(
         let* n = oneofl [ 128; 100; 7 ] in
         let* count = oneof [ return 1; int_range 2 300 ] in
         let* seed = int_range 0 1000 in
         return (n, count, seed)))
    (fun (n, count, seed) ->
      with_relation_file (image_batch ~seed ~count ~n) @@ fun path ->
      let cold = open_path path in
      let written = inode (Image.path path) in
      let warm = open_path path in
      Alcotest.(check bool)
        "the second open read the image, not rewrote it" true
        (inode (Image.path path) = written);
      let built = built_of path in
      check_same_index "cold" built cold;
      check_same_index "warm" built warm;
      check_same_queries "warm" built warm;
      true)

(* The normal form is not stored: [Dataset.normal] recomputes it from
   the entry's moments, and gives [decompose]'s array bit for bit
   however the entry was made. *)
let prop_normal_on_demand =
  QCheck.Test.make ~name:"on-demand normal form = decompose, bit for bit"
    ~count:9
    (QCheck.make
       ~print:(fun (n, count, seed) ->
         Printf.sprintf "n=%d count=%d seed=%d" n count seed)
       QCheck.Gen.(
         let* n = oneofl [ 128; 100; 7 ] in
         let* count = int_range 3 200 in
         let* seed = int_range 0 1000 in
         return (n, count, seed)))
    (fun (n, count, seed) ->
      with_relation_file (image_batch ~seed ~count ~n) @@ fun path ->
      let built = Dataset.of_relation (Relation.load path) in
      ignore (open_path path : Kindex.t);
      let warm = Kindex.dataset (open_path path) in
      let check what d =
        Array.iter
          (fun (e : Dataset.entry) ->
            check_bits what
              (Simq_series.Normal_form.decompose e.Dataset.series)
                .Simq_series.Normal_form.normalised
              (Dataset.normal d e.Dataset.id))
          (Dataset.entries d)
      in
      let lo = count / 3 in
      check "of_relation" built;
      check "warm open" warm;
      check "sub" (Dataset.sub built ~name:"block" ~lo ~width:(count - lo));
      check "sub of the warm open"
        (Dataset.sub warm ~name:"block" ~lo ~width:(count - lo));
      true)

let image_valid path =
  Option.is_some
    (Image.read ~like:(Unix.stat path) (Image.path path)
       (Image.key (Relation.load path)))

let test_image_stale_replaced () =
  with_relation_file (image_batch ~seed:3 ~count:40 ~n:32) @@ fun path ->
  ignore (open_path path : Kindex.t);
  save_relation path (image_batch ~seed:4 ~count:40 ~n:32);
  let opened = open_path path in
  check_same_index "stale" (built_of path) opened;
  check_same_queries "stale" (built_of path) opened;
  Alcotest.(check bool) "the image was rewritten" true (image_valid path)

let rewrite path f =
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f bytes);
  close_out oc

let test_image_invalid_falls_back () =
  with_relation_file (image_batch ~seed:5 ~count:50 ~n:100) @@ fun path ->
  let built = built_of path in
  ignore (open_path path : Kindex.t);
  let damage =
    [
      ("truncated by half", fun b -> String.sub b 0 (String.length b / 2));
      ("short by one byte", fun b -> String.sub b 0 (String.length b - 1));
      ("one trailing byte", fun b -> b ^ "\000");
      ( "garbage",
        fun b ->
          let st = Random.State.make [| 11 |] in
          String.init (String.length b) (fun _ ->
              Char.chr (Random.State.int st 256)) );
      ( "wrong version",
        fun b ->
          let b = Bytes.of_string b in
          Bytes.set_int64_le b 8 (Int64.succ (Bytes.get_int64_le b 8));
          Bytes.to_string b );
      ( "one spectrum bit flipped",
        fun b ->
          let b = Bytes.of_string b and at = String.length b / 2 in
          Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 1));
          Bytes.to_string b );
      ("empty", fun _ -> "");
    ]
  in
  List.iter
    (fun (what, f) ->
      rewrite (Image.path path) f;
      Alcotest.(check bool) (what ^ ": rejected") false (image_valid path);
      let opened = open_path path in
      check_same_index what built opened;
      Alcotest.(check bool) (what ^ ": rewritten") true (image_valid path))
    damage;
  (* Whole and in range, but its shape does not fit the entries. *)
  let key = Image.key (Relation.load path) and like = Unix.stat path in
  Image.write ~like (Image.path path) key (Kindex.dataset built)
    ~shape:[| [| 1 |] |];
  let opened = open_path path in
  check_same_index "misfit shape" built opened;
  match Image.read ~like (Image.path path) key with
  | Some image ->
    Alcotest.(check (array (array int)))
      "misfit shape: rewritten"
      (Bulk.shape (Kindex.tree built))
      image.Image.shape
  | None -> Alcotest.fail "misfit shape: no image after the open"

(* Over 32² entries: leaves, inner nodes and a root. *)
let test_image_three_levels () =
  with_relation_file (image_batch ~seed:8 ~count:1100 ~n:8) @@ fun path ->
  ignore (open_path path : Kindex.t);
  let warm = open_path path and built = built_of path in
  Alcotest.(check int)
    "three levels" 3
    (Array.length (Bulk.shape (Kindex.tree built)));
  check_same_index "three levels" built warm;
  check_same_queries "three levels" built warm

(* The image can rebuild every series, so it is readable by no one the
   relation file keeps out, and one that is wider is not used. *)
let test_image_permissions () =
  with_relation_file (image_batch ~seed:7 ~count:20 ~n:16) @@ fun path ->
  let image = Image.path path in
  let perm p = (Unix.stat p).Unix.st_perm land 0o777 in
  Unix.chmod path 0o600;
  ignore (open_path path : Kindex.t);
  Alcotest.(check int) "a 0600 relation gets a 0600 image" 0o600 (perm image);
  Sys.remove image;
  Unix.chmod path 0o640;
  ignore (open_path path : Kindex.t);
  Alcotest.(check int) "a 0640 relation gets a 0640 image" 0o640 (perm image);
  Unix.chmod path 0o600;
  Alcotest.(check bool)
    "an image wider than its relation is not read" false (image_valid path);
  let wide = inode image in
  let opened = open_path path in
  check_same_index "wide image" (built_of path) opened;
  Alcotest.(check bool) "the wide image was replaced" true
    (inode image <> wide);
  Alcotest.(check int) "by a 0600 one" 0o600 (perm image);
  Unix.chmod path 0o644;
  let narrow = inode image in
  ignore (open_path path : Kindex.t);
  Alcotest.(check bool)
    "a narrower image is read" true
    (image_valid path && inode image = narrow)

let test_image_path_is_directory () =
  with_relation_file (image_batch ~seed:6 ~count:30 ~n:16) @@ fun path ->
  Sys.mkdir (Image.path path) 0o755;
  let built = built_of path in
  let opened = open_path path in
  check_same_index "directory" built opened;
  check_same_queries "directory" built opened;
  Alcotest.(check bool)
    "the directory is left alone" true
    (Sys.is_directory (Image.path path));
  let prefix = Filename.basename (Image.path path) in
  Alcotest.(check (list string))
    "no temporary file left behind" []
    (List.filter
       (fun f -> f <> prefix && String.starts_with ~prefix f)
       (Array.to_list (Sys.readdir (Filename.dirname path))))

(* An image keyed for other preparing code: complete, its trailer
   right, only the fingerprint word another. *)
let test_image_code_mismatch () =
  with_relation_file (image_batch ~seed:9 ~count:40 ~n:32) @@ fun path ->
  let built = built_of path in
  let key = Image.key (Relation.load path) and like = Unix.stat path in
  Image.write ~like (Image.path path)
    { key with Image.code = Int64.succ key.Image.code }
    (Kindex.dataset built)
    ~shape:(Bulk.shape (Kindex.tree built));
  Alcotest.(check bool) "another fingerprint is rejected" false
    (image_valid path);
  let stale = inode (Image.path path) in
  let opened = open_path path in
  check_same_index "another fingerprint" built opened;
  Alcotest.(check bool) "and rewritten" true
    (image_valid path && inode (Image.path path) <> stale)

(* An image in format version 4's layout, which held all [n]
   coefficients of every spectrum, unweighted: complete, its trailer
   right and keyed for this relation but for the version, it is
   refused, and the open rewrites it in the current format. *)
let test_image_version_4 () =
  let module Words = Simq_storage.Words in
  let module A = Bigarray.Array1 in
  with_relation_file (image_batch ~seed:12 ~count:40 ~n:32) @@ fun path ->
  let built = built_of path in
  let d = Kindex.dataset built in
  let key = Image.key (Relation.load path) and count = Dataset.cardinality d in
  let ids = Array.init count (Dataset.id_at d) in
  let full =
    Array.map (fun id -> Simq_dsp.Fft.fft_real_flat (Dataset.normal d id)) ids
  in
  let oc = open_out_bin (Image.path path) in
  let w = Words.writer (Some oc) in
  List.iter (Words.word w)
    [
      Bytes.get_int64_le (Bytes.of_string "SIMQPREP") 0; 4L;
      Int64.of_int count; 32L; key.Image.digest; key.Image.code;
    ];
  Array.iter (Words.int w) ids;
  Array.iter (fun x -> Words.words w x ~pos:0 ~len:(A.dim x)) full;
  let all b = Words.words w b ~pos:0 ~len:(A.dim b) in
  all (Dataset.means d);
  all (Dataset.stds d);
  Array.iter
    (fun x -> Words.words w x ~pos:0 ~len:(2 * Simq_dsp.Flat.head_width))
    full;
  Array.iter
    (fun id -> Array.iter (Words.float w) (Feature.point Feature.default d id))
    ids;
  let shape = Bulk.shape (Kindex.tree built) in
  Words.int w (Array.length shape);
  Array.iter
    (fun level ->
      Words.int w (Array.length level);
      Array.iter (Words.int w) level)
    shape;
  ignore (Words.finish w : int64);
  close_out oc;
  Unix.chmod (Image.path path) 0o600;
  Alcotest.(check bool) "version 4 is refused" false (image_valid path);
  let stale = inode (Image.path path) in
  let opened = open_path path in
  check_same_index "version 4" built opened;
  Alcotest.(check bool) "and rewritten" true
    (image_valid path && inode (Image.path path) <> stale)

(* The fingerprint covers the tree the STR load packs: an image keyed
   by another [max_fill]'s fingerprint is rejected and rewritten. *)
let test_image_code_covers_the_tree () =
  with_relation_file (image_batch ~seed:10 ~count:60 ~n:32) @@ fun path ->
  let built = built_of path in
  let key = Image.key (Relation.load path) and like = Unix.stat path in
  Alcotest.(check int64) "the key's fingerprint is the fill's"
    (Image.code ~max_fill:Image.max_fill 32)
    key.Image.code;
  let other = Image.code ~max_fill:(Image.max_fill / 2) 32 in
  Alcotest.(check bool) "another fill, another fingerprint" false
    (Int64.equal other key.Image.code);
  Image.write ~like (Image.path path) { key with Image.code = other }
    (Kindex.dataset built)
    ~shape:(Bulk.shape (Kindex.tree built));
  Alcotest.(check bool) "is rejected" false (image_valid path);
  let stale = inode (Image.path path) in
  let opened = open_path path in
  check_same_index "another fill" built opened;
  Alcotest.(check bool) "and rewritten" true
    (image_valid path && inode (Image.path path) <> stale)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* An opened index reads its image's pages in place. Rewriting the
   relation and renaming another relation's image over its image
   leaves it the old file's bytes: it answers as before. *)
let test_image_replaced_under_reader () =
  with_relation_file (image_batch ~seed:21 ~count:120 ~n:64) @@ fun path ->
  let built = built_of path in
  ignore (open_path path : Kindex.t);
  let mapped = inode (Image.path path) in
  let warm = open_path path in
  Alcotest.(check bool) "the open read the image" true
    (inode (Image.path path) = mapped);
  let other_batch = image_batch ~seed:22 ~count:80 ~n:64 in
  with_relation_file other_batch @@ fun other ->
  ignore (open_path other : Kindex.t);
  save_relation path other_batch;
  Sys.rename (Image.path other) (Image.path path);
  Alcotest.(check bool) "the new image is the new relation's" true
    (image_valid path && inode (Image.path path) <> mapped);
  check_same_index "replaced" built warm;
  check_same_queries "replaced" built warm

(* A batch of RANGE, NEAREST and the three PAIRS methods on an opened
   index, plain and over four shards, writes nothing into its image,
   and leaves the index's spectra those of a fresh build. *)
let test_image_unchanged_by_batch () =
  let module Engine = Simq_serve.Engine in
  with_relation_file (image_batch ~seed:23 ~count:150 ~n:128) @@ fun path ->
  ignore (open_path path : Kindex.t);
  let image = read_file (Image.path path) in
  let warm = open_path path and built = built_of path in
  let texts =
    [|
      "RANGE FROM r QUERY s3 EPS 6";
      "RANGE FROM r USING mavg(3) QUERY s5 EPS 6";
      "NEAREST 5 FROM r QUERY s7";
      "NEAREST 5 FROM r USING rev QUERY s2";
      "PAIRS FROM r EPS 4 METHOD scan";
      "PAIRS FROM r USING mavg(3) EPS 4 METHOD scan-early";
      "PAIRS FROM r USING rev EPS 4 METHOD index";
    |]
  in
  let results ?shards index =
    Array.map
      (fun (_, result) ->
        match result with
        | Ok (o : Engine.outcome) ->
          Alcotest.(check bool) "some answers" true (o.Engine.answers > 0);
          Simq_obs.Json.to_string o.Engine.results
        | Error e -> Alcotest.failf "batch failed: %s" (Simq_cli.message e))
      (Engine.batch (Engine.create ?shards index) texts)
  in
  List.iter
    (fun shards ->
      let what =
        match shards with None -> "plain" | Some k -> Printf.sprintf "%d shards" k
      in
      Alcotest.(check (array string))
        (what ^ ": answers") (results ?shards built) (results ?shards warm);
      Alcotest.(check bool)
        (what ^ ": the image's bytes are unchanged") true
        (String.equal image (read_file (Image.path path)));
      check_same_index what built warm)
    [ None; Some 4 ]

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
          Alcotest.test_case "shared stretch = boxed formula, bit for bit"
            `Quick test_spec_stretch_shared;
          Alcotest.test_case "shared stretch from two domains" `Quick
            test_spec_stretch_two_domains;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "preparation" `Quick test_dataset_preparation;
          Alcotest.test_case "features need 2k < n" `Quick
            test_feature_needs_twins;
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
          Alcotest.test_case "key order = stable sort by Float.compare"
            `Quick test_key_order;
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
          Alcotest.test_case "postfilter abandons like the scan" `Quick
            test_range_postfilter_abandons;
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
          Alcotest.test_case "checked charges" `Quick
            test_nearest_checked_charges;
          Alcotest.test_case "allocates per query, not per entry" `Quick
            test_nearest_allocation;
          Alcotest.test_case "checked retries a node fault" `Quick
            test_nearest_checked_retries_fault;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "layout moves no double" `Quick
            test_layout_invariance;
        ] );
      ( "image",
        [
          QCheck_alcotest.to_alcotest prop_image_opens_bit_identical;
          QCheck_alcotest.to_alcotest prop_normal_on_demand;
          Alcotest.test_case "a stale image is replaced" `Quick
            test_image_stale_replaced;
          Alcotest.test_case "an invalid image falls back" `Quick
            test_image_invalid_falls_back;
          Alcotest.test_case "a directory in its place" `Quick
            test_image_path_is_directory;
          Alcotest.test_case "a three-level tree" `Quick
            test_image_three_levels;
          Alcotest.test_case "the relation's permission bits" `Quick
            test_image_permissions;
          Alcotest.test_case "another code fingerprint is rewritten" `Quick
            test_image_code_mismatch;
          Alcotest.test_case "a version-4 image is rewritten" `Quick
            test_image_version_4;
          Alcotest.test_case "the fingerprint covers the tree" `Quick
            test_image_code_covers_the_tree;
          Alcotest.test_case "replaced by rename under a reader" `Quick
            test_image_replaced_under_reader;
          Alcotest.test_case "a batch leaves the image unchanged" `Quick
            test_image_unchanged_by_batch;
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
          Alcotest.test_case "a pair at exactly epsilon is kept" `Quick
            test_join_keeps_pair_at_epsilon;
          Alcotest.test_case "untransformed matches identity" `Quick
            test_join_untransformed_matches_identity;
          Alcotest.test_case "smoothing admits more pairs" `Quick
            test_join_transformed_finds_more_smoothed_pairs;
          Alcotest.test_case "checked band charges its windows" `Quick
            test_join_checked_charges;
          Alcotest.test_case "index join charges its budget" `Quick
            test_index_join_charges;
        ] );
      ( "planner",
        [
          Alcotest.test_case "selectivity monotone" `Quick
            test_planner_selectivity_monotone;
          Alcotest.test_case "estimates roughly correct" `Quick
            test_planner_estimates_roughly_correct;
          Alcotest.test_case "histogram of the normal forms" `Quick
            test_planner_histogram_formula;
          Alcotest.test_case "choice and execution" `Quick
            test_planner_choice_and_execution;
        ] );
      ("properties", properties);
    ]
