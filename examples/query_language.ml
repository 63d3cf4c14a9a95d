(* The textual query language: parse similarity queries and run them
   against an indexed market.

   Run with: dune exec examples/query_language.exe *)

module Stocklike = Simq_workload.Stocklike
open Simq_tsindex

let run_query index queries_by_name text =
  Printf.printf "\n> %s\n" text;
  match Ql.parse text with
  | Error msg -> Printf.printf "  parse error: %s\n" msg
  | Ok q -> (
    Printf.printf "  parsed: %s\n" (Format.asprintf "%a" Ql.pp q);
    let print_answer (id, d) =
      Printf.printf "    %s  distance %.3f\n"
        (Dataset.name (Kindex.dataset index) id)
        d
    in
    match q with
    | Ql.Range { spec; query; epsilon; mean_window; std_band; _ } -> (
      match List.assoc_opt query queries_by_name with
      | None -> Printf.printf "  unknown query series %S\n" query
      | Some series ->
        let r =
          Kindex.range ~spec ?mean_window ?std_band index ~query:series
            ~epsilon
        in
        Printf.printf "  %d answers, %d candidates, %d node accesses\n"
          (List.length r.Kindex.answers)
          r.Kindex.candidates r.Kindex.node_accesses;
        List.iter print_answer r.Kindex.answers)
    | Ql.Nearest { k; spec; query; _ } -> (
      match List.assoc_opt query queries_by_name with
      | None -> Printf.printf "  unknown query series %S\n" query
      | Some series ->
        List.iter print_answer (Kindex.nearest ~spec index ~query:series ~k))
    | Ql.Pairs { spec; epsilon; method_; _ } ->
      let result =
        match method_ with
        | Ql.Scan_full -> Join.scan_full ~spec index ~epsilon
        | Ql.Scan_early -> Join.scan_early_abandon ~spec index ~epsilon
        | Ql.Index -> Result.get_ok (Join.index ~spec index ~epsilon)
      in
      Printf.printf
        "    %d pairs (%d distance computations, %d node accesses)\n"
        (List.length result.Join.pairs)
        result.Join.distance_computations result.Join.node_accesses)

let () =
  let market = Stocklike.batch ~seed:5 ~count:300 ~n:128 in
  let dataset = Dataset.of_series ~name:"stocks" market in
  let index = Kindex.build dataset in
  (* Two named query series: a noisy copy of stock 0 and stock 0 sampled
     every other day (for the warp query). *)
  let state = Random.State.make [| 1 |] in
  let noisy =
    Array.map (fun v -> v +. Random.State.float state 0.2 -. 0.1) market.(0)
  in
  (* warp(2) queries must be twice the data length (256): expand the
     64-point half-rate series by 4. *)
  let halved = Simq_series.Series.sample_every 2 market.(0) in
  let warped_query = Simq_series.Warp.expand 4 halved in
  let queries = [ ("noisy0", noisy); ("halfrate0", warped_query) ] in
  Printf.printf "market: %d stocks x 128 days, k-index with k = %d (polar)\n"
    (Dataset.cardinality dataset)
    (Kindex.config index).Feature.k;
  List.iter
    (run_query index queries)
    [
      "RANGE FROM stocks QUERY noisy0 EPS 1.0";
      "RANGE FROM stocks USING mavg(20) QUERY noisy0 EPS 0.5";
      "NEAREST 3 FROM stocks USING rev QUERY noisy0";
      "PAIRS FROM stocks USING mavg(20) EPS 1.0 METHOD index";
      "RANGE FROM stocks USING warp(2) QUERY halfrate0 EPS 8.0";
      "RANGE FROM stocks USING teleport(3) QUERY noisy0 EPS 1.0";
    ]
