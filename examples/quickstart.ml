(* Quickstart: the two motivating examples of the paper (Examples 1.1
   and 1.2) and a first index-accelerated similarity query.

   Run with: dune exec examples/quickstart.exe *)

module Series = Simq_series.Series
module Distance = Simq_series.Distance
module Fixtures = Simq_series.Fixtures
module Ma = Simq_series.Moving_average
module Warp = Simq_series.Warp
module Window = Simq_dsp.Window
open Simq_tsindex

let section title =
  Printf.printf "\n== %s ==\n" title

let () =
  section "Example 1.1: moving averages reveal similarity";
  let s1 = Fixtures.ex11_s1 and s2 = Fixtures.ex11_s2 in
  Printf.printf "s1 = %s\n" (Format.asprintf "%a" Series.pp s1);
  Printf.printf "s2 = %s\n" (Format.asprintf "%a" Series.pp s2);
  Printf.printf "raw Euclidean distance:            D(s1, s2)           = %.2f\n"
    (Distance.euclidean s1 s2);
  let w = Window.uniform 3 in
  Printf.printf "3-day moving averages:             D(ma3 s1, ma3 s2)   = %.2f\n"
    (Distance.euclidean (Ma.circular w s1) (Ma.circular w s2));

  section "Example 1.2: time warping aligns different sampling rates";
  let s = Fixtures.ex12_s and p = Fixtures.ex12_p in
  Printf.printf "s (daily)       = %s\n" (Format.asprintf "%a" Series.pp s);
  Printf.printf "p (every 2nd)   = %s\n" (Format.asprintf "%a" Series.pp p);
  let warped = Warp.expand 2 p in
  Printf.printf "warp x2 of p    = %s\n" (Format.asprintf "%a" Series.pp warped);
  Printf.printf "D(warp 2 p, s)  = %.2f\n" (Distance.euclidean warped s);

  section "A first indexed similarity query";
  (* 500 random walks; find the ones whose 8-day moving average tracks a
     perturbed copy of walk #0. *)
  let batch = Simq_series.Generator.random_walks ~seed:7 ~count:500 ~n:128 in
  let dataset = Dataset.of_series ~name:"walks" batch in
  let index = Kindex.build dataset in
  let state = Random.State.make [| 99 |] in
  let noisy =
    Array.map (fun v -> v +. Random.State.float state 2. -. 1.) batch.(0)
  in
  (* “Whose 8-day moving average tracks mine?”: the data side gets the
     transformation during the index traversal; the query side is
     smoothed here (so it is already in the comparison space —
     ~normalise_query:false keeps it verbatim). *)
  let spec = Spec.Moving_average 8 in
  let query =
    Ma.circular (Window.uniform 8) (Simq_series.Normal_form.normalise noisy)
  in
  let epsilon = 1.0 in
  let result = Kindex.range ~spec ~normalise_query:false index ~query ~epsilon in
  Printf.printf
    "query: 8-day MA within eps=%.1f of a noisy copy of walk #0\n" epsilon;
  Printf.printf "answers: %d (from %d candidates, %d node accesses)\n"
    (List.length result.Kindex.answers)
    result.Kindex.candidates result.Kindex.node_accesses;
  List.iter
    (fun ((e : Dataset.entry), d) ->
      Printf.printf "  %s  distance %.3f\n" e.Dataset.name d)
    result.Kindex.answers;

  (* The same query through the sequential-scan baseline gives the same
     answers — Lemma 1 in action. *)
  let reference =
    Seqscan.reference ~spec ~normalise_query:false dataset ~query ~epsilon
  in
  let agrees =
    List.map (fun ((e : Dataset.entry), _) -> e.Dataset.id) reference
    = List.map
        (fun ((e : Dataset.entry), _) -> e.Dataset.id)
        result.Kindex.answers
  in
  Printf.printf "sequential scan agrees: %b\n" agrees;
  if not agrees then exit 1
