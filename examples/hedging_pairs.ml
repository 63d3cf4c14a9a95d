(* Hedging pairs: find all pairs of stocks that move in opposite
   directions, by joining the market with its reversal T_rev = (-1, 0) -
   the spatial self-join the paper runs for Example 2.2 / Table 1.

   We plant a few anti-correlated pairs in a synthetic market and let the
   transformed index join recover them.

   Run with: dune exec examples/hedging_pairs.exe *)

module Series = Simq_series.Series
module Distance = Simq_series.Distance
module Normal_form = Simq_series.Normal_form
module Stocklike = Simq_workload.Stocklike
open Simq_tsindex

let () =
  let n = 128 in
  let state = Random.State.make [| 2025 |] in
  (* 120 independent stocks plus 4 planted hedging pairs. *)
  let independents = Stocklike.batch ~seed:77 ~count:120 ~n in
  let planted =
    List.init 4 (fun _ -> Stocklike.correlated_pair state ~n ~rho:(-0.985))
  in
  let market =
    Array.append independents
      (Array.of_list (List.concat_map (fun (a, b) -> [ a; b ]) planted))
  in
  let dataset = Dataset.of_series ~name:"market" market in
  let index = Kindex.build dataset in

  (* The pairs query: x joined against reversed y. We reverse the data
     side and, for every stock, search around its own (unreversed)
     features; smoothing first makes the match robust. The epsilon is
     calibrated on the planted pairs' scale. *)
  let epsilon = 1.5 in
  let smooth = Spec.Moving_average 20 in
  let entries = Dataset.entries dataset in
  let hedges = ref [] in
  Array.iter
    (fun (entry : Dataset.entry) ->
      (* Query side: the smoothed normal form of this stock. Data side:
         smoothed reversal. Matches = stocks moving opposite to it. *)
      let query_series = entry.Dataset.series in
      let smoothed_reversed candidate =
        Distance.euclidean
          (Spec.apply_series smooth
             (Series.reverse_sign (Dataset.normal dataset candidate)))
          (Spec.apply_series smooth (Normal_form.normalise query_series))
      in
      (* Data side transformed by smooth∘reverse. Reversal is linear, so
         D(smooth (rev x), smooth q) = D(smooth x, smooth (-q)): traverse
         with spec = smooth and use the features of smooth(-q) — the
         query's coefficients through the (negated) transfer function. *)
      let q = Dataset.prepare_query query_series in
      let k = (Kindex.config index).Feature.k in
      let transfer = Spec.stretch smooth ~n in
      let query_coeffs =
        Array.init k (fun i ->
            Simq_dsp.Cpx.neg
              (Simq_dsp.Cpx.mul (Simq_dsp.Flat.coeff transfer (i + 1))
                 (Simq_dsp.Flat.coeff q.Dataset.qspectrum (i + 1))))
      in
      let result =
        Kindex.range_generic ~spec:smooth index ~query_coeffs ~epsilon
          ~distance:smoothed_reversed
      in
      List.iter
        (fun ((candidate : Dataset.entry), d) ->
          if candidate.Dataset.id < entry.Dataset.id then
            hedges := (candidate.Dataset.id, entry.Dataset.id, d) :: !hedges)
        result.Kindex.answers)
    entries;

  Printf.printf "market: %d stocks x %d days; planted hedging pairs: ids %s\n"
    (Array.length market) n
    (String.concat ", "
       (List.mapi
          (fun i _ ->
            Printf.sprintf "(%d,%d)" (120 + (2 * i)) (121 + (2 * i)))
          planted));
  Printf.printf "\nfound %d opposite-movement pairs (eps = %.1f):\n"
    (List.length !hedges) epsilon;
  List.iter
    (fun (i, j, d) ->
      let planted_pair = i >= 120 && j = i + 1 && (i - 120) mod 2 = 0 in
      Printf.printf "  %s-%s  D(ma20 x, ma20 (-y)) = %.2f%s\n"
        entries.(i).Dataset.name entries.(j).Dataset.name d
        (if planted_pair then "   <- planted" else ""))
    (List.sort compare !hedges)
