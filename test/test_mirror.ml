(* The mirrored bound where it is tight. Every series below is a sum of
   sinusoids at frequencies 1 .. 3, so its spectrum lives in
   coefficients 1 .. 3 and their twins n−1 .. n−3, and so does every
   distance between two of them under a conjugate-symmetric stretch:
   the head key counted with its twins is the whole distance, and for
   the series without frequency 3 so is the feature bound. Duplicates
   and shifted, scaled copies add pairs at distance 0 and ties at the
   k-th neighbour. RANGE is checked at ε set to exact distances, NEAREST
   at every k across the ties and PAIRS (band and index joins) at exact
   pair distances, each against a reference that uses no bound: the
   time-domain brute force and the full kernel scan, the exact linear
   selection, and the full join scan. Below the length where the twins are coefficients of
   their own the bound must stay one-sided. *)

open Simq_tsindex
module Flat = Simq_dsp.Flat
module Coords = Simq_geometry.Coords
module Shard = Simq_shard
module Sketch = Simq_sketch

let two_pi = 2. *. Float.pi

(* [count] sums of sinusoids at frequencies 1 .. 3 (every third without
   frequency 3), then exact duplicates and shifted, scaled copies of
   some of them, and reflections of others: the series with its cosine
   at frequency 1 negated, of the same mean and norm, so that the pair
   differs only in the real part of coefficient 1 and its twin — where
   the band's keys and pre-pass are tight too. *)
let sinusoids ~seed ~count ~n =
  let st = Random.State.make [| seed |] in
  let one i =
    let amp f =
      if f = 3 && i mod 3 = 0 then 0. else 0.2 +. Random.State.float st 1.
    in
    let parts =
      List.map
        (fun f -> (f, amp f, Random.State.float st two_pi))
        [ 1; 2; 3 ]
    in
    Array.init n (fun t ->
        List.fold_left
          (fun acc (f, a, phase) ->
            acc
            +. a
               *. cos
                    ((two_pi *. float_of_int (f * t) /. float_of_int n)
                    +. phase))
          0. parts)
  in
  let base = Array.init count one in
  let copies =
    Array.init (count / 4) (fun i ->
        let s = base.(i * 3 mod count) in
        if i mod 2 = 0 then Array.copy s
        else Array.map (fun v -> (2.5 *. v) -. 4.) s)
  in
  let cosine =
    Array.init n (fun t -> cos (two_pi *. float_of_int t /. float_of_int n))
  in
  let dot a b =
    let acc = ref 0. in
    Array.iteri (fun t x -> acc := !acc +. (x *. b.(t))) a;
    !acc
  in
  let reflections =
    Array.init (count / 4) (fun i ->
        let s = base.(((i * 5) + 1) mod count) in
        let c = 2. *. dot s cosine /. dot cosine cosine in
        Array.mapi (fun t v -> v -. (c *. cosine.(t))) s)
  in
  Dataset.of_series ~pool:Simq_parallel.Pool.sequential ~name:"twins"
    (Array.concat [ base; copies; reflections ])

let specs_for n =
  [
    Spec.Identity;
    Spec.Reverse;
    Spec.Moving_average 3;
    Spec.Weighted_ma (Simq_dsp.Window.ascending 5);
    Spec.Warp 2;
  ]
  @ if n >= 8 then [ Spec.Moving_average 8 ] else []

let query_of d spec i =
  let s = (Dataset.get d i).Dataset.series in
  match spec with Spec.Warp m -> Simq_series.Warp.expand m s | _ -> s

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let pairs_of answers =
  List.map (fun ((e : Dataset.entry), d) -> (e.Dataset.id, d)) answers

let check_bits label expected actual =
  Alcotest.(check (list int))
    (label ^ ": ids") (List.map fst expected) (List.map fst actual);
  List.iter2
    (fun (_, a) (_, b) ->
      Alcotest.(check bool) (label ^ ": distance bits") true (same_bits a b))
    expected actual

let lengths = [ 128; 100; 7 ]

let mirrored spec ~n =
  n >= 8 && match spec with Spec.Warp _ -> false | _ -> true

let test_slack_applies () =
  List.iter
    (fun n ->
      let idx = Kindex.build (sinusoids ~seed:1 ~count:12 ~n) in
      List.iter
        (fun spec ->
          let slack = Kindex.twin_slack idx spec ~query_norm:0. in
          let label = Printf.sprintf "%s n=%d" (Spec.name spec) n in
          Alcotest.(check bool)
            (label ^ ": twins iff non-warp and n >= 8")
            (mirrored spec ~n) (Float.is_finite slack);
          if Float.is_finite slack then
            Alcotest.(check bool)
              (label ^ ": slack is small but positive")
              true
              (slack > 0. && slack < 1e-4))
        (specs_for n))
    lengths

(* On these series the head key with its twins is the distance itself,
   while the one-sided head key is at most 1/√2 of it: the tests below
   run where the slack decides. *)
let test_bound_is_tight () =
  List.iter
    (fun n ->
      let d = sinusoids ~seed:2 ~count:24 ~n in
      let idx = Kindex.build d in
      List.iter
        (fun spec ->
          let stretch = Some (Spec.stretch spec ~n) in
          let q = Dataset.prepare_query (query_of d spec 1) in
          let dist = Kindex.prepared_distance idx (Kindex.prepare idx spec) q in
          let acc = Flat.acc () in
          Array.iter
            (fun (e : Dataset.entry) ->
              let s = Dataset.slot d e.Dataset.id in
              Dataset.head_twin_sq_dist d ~stretch s q.Dataset.qspectrum acc;
              let twin = sqrt acc.Flat.sum in
              ignore
                (Dataset.head_sq_dist d ~stretch s q.Dataset.qspectrum acc);
              let plain = sqrt acc.Flat.sum and exact = dist e.Dataset.id in
              let label =
                Printf.sprintf "%s n=%d id=%d" (Spec.name spec) n e.Dataset.id
              in
              Alcotest.(check (float (1e-9 *. (1. +. exact))))
                (label ^ ": twin key = distance") exact twin;
              Alcotest.(check bool)
                (label ^ ": one-sided key <= distance/√2")
                true
                (plain <= (exact *. 0.70711) +. 1e-9))
            (Dataset.entries d))
        [ Spec.Identity; Spec.Reverse; Spec.Moving_average 3 ])
    [ 128; 100 ]

(* Every distinct kernel distance from the query up to the 20th, and
   every 7th beyond: thresholds that sit exactly on an answer. *)
let exact_epsilons d spec query =
  (Seqscan.range_full ~spec d ~query ~epsilon:1e9).Seqscan.answers
  |> List.map snd |> List.sort_uniq Float.compare
  |> List.filteri (fun i _ -> i < 20 || i mod 7 = 0)

let test_range_at_exact_distances () =
  List.iter
    (fun n ->
      let d = sinusoids ~seed:3 ~count:48 ~n in
      List.iter
        (fun representation ->
          let config = { Feature.k = 2; representation } in
          let idx = Kindex.build ~config ~max_fill:6 d in
          let sh = Shard.create ~config ~max_fill:6 ~shards:4 d in
          let ssh =
            Shard.create ~config ~max_fill:6 ~sketch:Sketch.default ~shards:4 d
          in
          List.iter
            (fun spec ->
              (* Complex stretches are only safe in S_pol (Theorem 3). *)
              let skip =
                representation = Coords.Rectangular
                &&
                match spec with
                | Spec.Identity | Spec.Reverse -> false
                | _ -> true
              in
              if not skip then
                List.iter
                  (fun qi ->
                    let query = query_of d spec qi in
                    List.iter
                      (fun epsilon ->
                        let label =
                          Printf.sprintf "%s %s n=%d q=%d eps=%h"
                            (match representation with
                            | Coords.Polar -> "polar"
                            | Coords.Rectangular -> "rect")
                            (Spec.name spec) n qi epsilon
                        in
                        let full =
                          pairs_of
                            (Seqscan.range_full ~spec d ~query ~epsilon)
                              .Seqscan.answers
                        in
                        let index =
                          pairs_of (Kindex.range ~spec idx ~query ~epsilon)
                            .Kindex.answers
                        in
                        check_bits (label ^ " index = full scan") full index;
                        (match
                           Kindex.range_checked ~spec idx ~query ~epsilon
                         with
                        | Ok r ->
                          check_bits (label ^ " checked") full
                            (pairs_of r.Kindex.answers)
                        | Error e ->
                          Alcotest.failf "%s: %s" label
                            (Simq_fault.Error.to_string e));
                        List.iter
                          (fun (name, sh) ->
                            check_bits
                              (Printf.sprintf "%s %s" label name)
                              full
                              (pairs_of
                                 (Shard.range ~spec sh ~query ~epsilon)
                                   .Shard.answers))
                          [ ("shards", sh); ("shards+sketch", ssh) ];
                        (* The time-domain brute force agrees but for
                           distances within rounding of ε. *)
                        let ids e =
                          List.map
                            (fun ((x : Dataset.entry), _) -> x.Dataset.id)
                            (Seqscan.reference ~spec d ~query ~epsilon:e)
                        in
                        let index_ids = List.map fst index in
                        let tol = 1e-9 *. (1. +. epsilon) in
                        List.iter
                          (fun id ->
                            Alcotest.(check bool)
                              (Printf.sprintf "%s: reference holds %d" label
                                 id)
                              true
                              (List.mem id index_ids))
                          (ids (epsilon -. tol));
                        List.iter
                          (fun id ->
                            Alcotest.(check bool)
                              (Printf.sprintf "%s: answer %d in reference"
                                 label id)
                              true
                              (List.mem id (ids (epsilon +. tol))))
                          index_ids)
                      (exact_epsilons d spec query))
                  [ 0; 5 ])
            (specs_for n))
        [ Coords.Polar; Coords.Rectangular ])
    lengths

let test_nearest_ties () =
  List.iter
    (fun n ->
      let d = sinusoids ~seed:4 ~count:40 ~n in
      let idx = Kindex.build ~max_fill:4 d in
      let sh = Shard.create ~max_fill:4 ~shards:4 d in
      let sketch = Sketch.create d in
      List.iter
        (fun spec ->
          List.iter
            (fun qi ->
              let query = query_of d spec qi in
              List.iter
                (fun k ->
                  let label =
                    Printf.sprintf "%s n=%d q=%d k=%d" (Spec.name spec) n qi k
                  in
                  let expected =
                    match
                      Kindex.nearest_scan idx
                        (Kindex.nearest_query idx spec query)
                        ~budget:Simq_fault.Budget.unlimited ~profile:None ~k
                    with
                    | Ok r -> pairs_of r
                    | Error e ->
                      Alcotest.failf "%s: %s" label
                        (Simq_fault.Error.to_string e)
                  in
                  check_bits (label ^ " index") expected
                    (pairs_of (Kindex.nearest ~spec idx ~query ~k));
                  check_bits (label ^ " sketch key") expected
                    (pairs_of
                       (Kindex.nearest ~spec
                          ~sketch:(fun query -> Sketch.nn_bound sketch ~spec ~query)
                          idx ~query ~k));
                  (match Kindex.nearest_checked ~spec idx ~query ~k with
                  | Ok r ->
                    check_bits (label ^ " checked") expected
                      (pairs_of r.Kindex.neighbours)
                  | Error e ->
                    Alcotest.failf "%s: %s" label
                      (Simq_fault.Error.to_string e));
                  check_bits (label ^ " shards") expected
                    (pairs_of (Shard.nearest ~spec sh ~query ~k).Shard.neighbours))
                (List.init 24 succ))
            [ 0; 3; 9; 11 ])
        (specs_for n))
    lengths

(* Exact pair distances under the stretch, from the kernel over the
   stretched spectra (the warp's from the time domain, as its scans
   compare): thresholds on which a pair sits. *)
let pair_epsilons d spec =
  let n = Dataset.series_length d and count = Dataset.cardinality d in
  let distance =
    match spec with
    | Spec.Warp _ ->
      let warped =
        Array.init count (fun i ->
            Spec.apply_series spec (Dataset.normal d i))
      in
      fun i j -> Simq_series.Distance.euclidean warped.(i) warped.(j)
    | _ ->
      let stretch = Spec.stretch spec ~n in
      let stretched =
        Array.init count (fun i ->
            let x = Flat.create n in
            Flat.stretch_into ~stretch (Dataset.spectrum d i) x ~off:0;
            x)
      in
      let acc = Flat.acc () in
      fun i j ->
        acc.Flat.sum <- 0.;
        ignore
          (Flat.sq_dist ~stretch:None ~limit:infinity ~lo:0 ~hi:n
             stretched.(i) 0 stretched.(j) 0 acc);
        sqrt acc.Flat.sum
  in
  let all = ref [] in
  for i = 0 to count - 1 do
    for j = i + 1 to count - 1 do
      all := distance i j :: !all
    done
  done;
  List.sort_uniq Float.compare !all
  |> List.filteri (fun i _ -> i < 12 || i mod 97 = 0)

(* The band join and the index join against the full scan: the index
   join reports each of the full scan's pairs in both directions and
   nothing else. *)
let test_pairs_at_exact_distances () =
  List.iter
    (fun n ->
      let d = sinusoids ~seed:5 ~count:36 ~n in
      let idx = Kindex.build ~max_fill:6 d in
      List.iter
        (fun spec ->
          List.iter
            (fun epsilon ->
              let label =
                Printf.sprintf "%s n=%d eps=%h" (Spec.name spec) n epsilon
              in
              let full = Join.scan_full ~spec idx ~epsilon in
              let early = Join.scan_early_abandon ~spec idx ~epsilon in
              Alcotest.(check (list (pair int int)))
                (label ^ ": band = full scan") full.Join.pairs early.Join.pairs;
              Alcotest.(check bool)
                (label ^ ": the band compares no more pairs")
                true
                (early.Join.distance_computations
                <= full.Join.distance_computations);
              match Join.index ~spec idx ~epsilon with
              | Ok index ->
                Alcotest.(check (list (pair int int)))
                  (label ^ ": index = full scan, both directions")
                  (List.sort compare
                     (full.Join.pairs
                     @ List.map (fun (i, j) -> (j, i)) full.Join.pairs))
                  (List.sort compare index.Join.pairs)
              | Error e ->
                Alcotest.failf "%s: %s" label (Simq_fault.Error.to_string e))
            (pair_epsilons d spec))
        (specs_for n))
    lengths

let walks ~seed ~count ~n =
  Dataset.of_series ~pool:Simq_parallel.Pool.sequential ~name:"walks"
    (Simq_series.Generator.random_walks ~seed ~count ~n)

(* The twin abandon of [Flat.dist_within], on the sinusoids (where the
   twin bound is the whole distance, so it is tight against every
   threshold) and on random walks (where it fires early). For every
   entry and every [w] set to an exact kernel distance and one ulp
   either side, from coefficient 0 and resumed after the head (its
   coefficient-0 term recorded by [Dataset.head_sq_dist]), the result
   with twins is bit for bit the one-sided kernel's wherever that is
   within [w], and above [w] wherever it is not. *)
let test_dist_within_twin () =
  let abandoned = ref 0 in
  List.iter
    (fun n ->
      List.iter
        (fun d ->
          let idx = Kindex.build d in
          let spectra = Dataset.spectra d in
          List.iter
            (fun spec ->
              let label = Printf.sprintf "%s n=%d" (Spec.name spec) n in
              let stretch = Some (Spec.stretch spec ~n) in
              let q = Dataset.prepare_query (query_of d spec 0) in
              let qs = q.Dataset.qspectrum in
              let slack =
                Kindex.twin_slack idx spec
                  ~query_norm:(sqrt (Flat.energy qs))
              in
              Alcotest.(check bool) (label ^ ": twins") true
                (Float.is_finite slack);
              let mirror = Flat.mirror ~slack in
              let slots =
                Array.map
                  (fun (e : Dataset.entry) -> Dataset.slot d e.Dataset.id)
                  (Dataset.entries d)
              in
              let run ?mirror ~resume s w =
                let acc = Flat.acc () and cell = Flat.acc () in
                cell.Flat.sum <- w;
                let lo =
                  if resume then Dataset.head_sq_dist d ~stretch ?mirror s qs acc
                  else 0
                in
                Flat.dist_within ~stretch ?mirror ~lo ~hi:n spectra (s * n) qs 0
                  acc ~within:cell;
                cell.Flat.sum
              in
              let exact = Array.map (fun s -> run ~resume:false s infinity) slots in
              Array.iter
                (fun e ->
                  List.iter
                    (fun w ->
                      Array.iter
                        (fun s ->
                          let plain = run ~resume:false s w in
                          List.iter
                            (fun resume ->
                              let twin = run ~mirror ~resume s w in
                              if plain <= w then begin
                                if not (same_bits plain twin) then
                                  Alcotest.failf
                                    "%s slot=%d w=%h resume=%b: %h, expected %h"
                                    label s w resume twin plain
                              end
                              else begin
                                if not (twin > w) then
                                  Alcotest.failf
                                    "%s slot=%d w=%h resume=%b: %h not above w"
                                    label s w resume twin;
                                if not (same_bits plain twin) then
                                  incr abandoned
                              end)
                            [ false; true ])
                        slots)
                    [ Float.pred e; e; Float.succ e ])
                exact)
            [
              Spec.Identity; Spec.Reverse; Spec.Moving_average 3;
              Spec.Weighted_ma (Simq_dsp.Window.ascending 5);
            ])
        [ sinusoids ~seed:12 ~count:12 ~n; walks ~seed:12 ~count:12 ~n ])
    [ 8; 9; 16; 128 ];
  Alcotest.(check bool) "the twin test fires" true (!abandoned > 0);
  (* The mirrored path allocates nothing per call either. *)
  let d = walks ~seed:13 ~count:4 ~n:128 in
  let q = Dataset.prepare_query (Dataset.get d 0).Dataset.series in
  let mirror = Some (Flat.mirror ~slack:1e-6) in
  let acc = Flat.acc () and cell = Flat.acc () in
  let before = Gc.minor_words () in
  for i = 1 to 1000 do
    let s = i mod 4 in
    let lo =
      Dataset.head_sq_dist d ~stretch:None ?mirror s q.Dataset.qspectrum acc
    in
    cell.Flat.sum <- 1.;
    Flat.dist_within ~stretch:None ?mirror ~lo ~hi:128 (Dataset.spectra d)
      (s * 128) q.Dataset.qspectrum 0 acc ~within:cell
  done;
  Alcotest.(check bool) "no allocation per refinement" true
    (Gc.minor_words () -. before < 16.)

(* The band kernel on mirrored rows, where its pre-pass, head exit and
   tail's twin test are tight: on the sinusoids coefficients 1 .. 3
   and their twins carry the whole distance, so a pair's head terms
   over 1 .. 3 are about half its sum; on random walks the tail's twin
   test fires early. At thresholds set to every exact pair sum and one
   ulp either side, [within_band] (abandoning at the threshold or
   never) hits exactly the positions that [within_row ~limit:infinity]
   hits, and allocates nothing. *)
let test_band_kernel_at_exact_sums () =
  List.iter
    (fun (n, d) ->
      let idx = Kindex.build ~max_fill:6 d in
      let count = Dataset.cardinality d in
      let slots = Array.init count (Dataset.slot d) in
      List.iter
        (fun spec ->
          let label = Printf.sprintf "%s n=%d" (Spec.name spec) n in
          let stretch = Spec.stretch spec ~n in
          let slack = Kindex.twin_slack idx spec ~query_norm:0. in
          Alcotest.(check bool) (label ^ ": rows with twins") true
            (Float.is_finite slack);
          let rows =
            Flat.mirrored
              (Flat.rows ~stretch ~heads:(Dataset.heads d)
                 (Dataset.spectra d) slots)
              ~slack
          in
          let stretched =
            Array.init count (fun id ->
                let x = Flat.create n in
                Flat.stretch_into ~stretch (Dataset.spectrum d id) x ~off:0;
                x)
          in
          let sums = ref [] in
          for i = 0 to count - 1 do
            for j = i + 1 to count - 1 do
              let acc = Flat.acc () in
              ignore
                (Flat.sq_dist ~stretch:None ~limit:infinity ~lo:0 ~hi:n
                   stretched.(i) 0 stretched.(j) 0 acc);
              sums := acc.Flat.sum :: !sums
            done
          done;
          let hits = Array.make count 0 and band = Array.make count 0 in
          let hit_count = ref 0 in
          List.iter
            (fun sum ->
              List.iter
                (fun threshold ->
                  for i = 0 to count - 1 do
                    let expected =
                      Array.to_list
                        (Array.sub hits 0
                           (Flat.within_row rows ~limit:infinity ~threshold ~i
                              ~j0:(i + 1) hits))
                    in
                    hit_count := !hit_count + List.length expected;
                    List.iter
                      (fun limit ->
                        let found =
                          Array.to_list
                            (Array.sub band 0
                               (Flat.within_band rows ~limit ~threshold ~i
                                  ~j1:count band))
                        in
                        if found <> expected then
                          Alcotest.(check (list int))
                            (Printf.sprintf "%s i=%d threshold=%h limit=%h"
                               label i threshold limit)
                            expected found)
                      [ threshold; infinity ]
                  done)
                [ Float.pred sum; sum; Float.succ sum ])
            (List.sort_uniq Float.compare !sums);
          Alcotest.(check bool) (label ^ ": some hits") true (!hit_count > 0);
          let before = Gc.minor_words () in
          for i = 0 to 999 do
            ignore
              (Flat.within_band rows ~limit:infinity ~threshold:1.
                 ~i:(i mod count) ~j1:count band)
          done;
          Alcotest.(check bool) (label ^ ": no allocation per row") true
            (Gc.minor_words () -. before < 16.))
        [
          Spec.Identity; Spec.Reverse; Spec.Moving_average 3;
          Spec.Weighted_ma (Simq_dsp.Window.ascending 5);
        ])
    (List.concat_map
       (fun n ->
         [ (n, sinusoids ~seed:9 ~count:16 ~n); (n, walks ~seed:9 ~count:16 ~n) ])
       [ 8; 9; 16; 128 ])

(* On random walks the mirrored region takes fewer candidates than the
   one-sided region of [range_generic] — which must stay one-sided, its
   caller supplying the distance — and the same answers. *)
let test_region_narrows () =
  let d =
    Dataset.of_series ~name:"walks"
      (Simq_series.Generator.random_walks ~seed:6 ~count:300 ~n:128)
  in
  let idx = Kindex.build ~max_fill:8 d in
  let mirrored = ref 0 and one_sided = ref 0 in
  List.iter
    (fun (qi, epsilon) ->
      let query = (Dataset.get d qi).Dataset.series in
      let q = Dataset.prepare_query query in
      let r = Kindex.range idx ~query ~epsilon in
      let g =
        Kindex.range_generic idx
          ~query_coeffs:(Flat.sub q.Dataset.qspectrum ~pos:1 ~len:2)
          ~epsilon
          ~distance:(Kindex.prepared_distance idx (Kindex.prepare idx Spec.Identity) q)
      in
      check_bits
        (Printf.sprintf "q=%d eps=%g: answers" qi epsilon)
        (pairs_of g.Kindex.answers) (pairs_of r.Kindex.answers);
      mirrored := !mirrored + r.Kindex.candidates;
      one_sided := !one_sided + g.Kindex.candidates)
    [ (0, 4.); (11, 6.); (42, 8.); (99, 10.) ];
  Alcotest.(check bool)
    (Printf.sprintf "mirrored candidates %d < one-sided %d" !mirrored
       !one_sided)
    true
    (!mirrored < !one_sided)

let () =
  Alcotest.run "mirror"
    [
      ( "slack",
        [
          Alcotest.test_case "applies to non-warp specs at n >= 8" `Quick
            test_slack_applies;
          Alcotest.test_case "tight on low-frequency sinusoids" `Quick
            test_bound_is_tight;
        ] );
      ( "filters",
        [
          Alcotest.test_case "RANGE at exact distances" `Quick
            test_range_at_exact_distances;
          Alcotest.test_case "NEAREST across ties" `Quick test_nearest_ties;
          Alcotest.test_case "PAIRS at exact distances" `Quick
            test_pairs_at_exact_distances;
          Alcotest.test_case "dist_within twin abandon at exact distances"
            `Quick test_dist_within_twin;
          Alcotest.test_case "band kernel at exact pair sums" `Quick
            test_band_kernel_at_exact_sums;
          Alcotest.test_case "RANGE region narrows" `Quick
            test_region_narrows;
        ] );
    ]
