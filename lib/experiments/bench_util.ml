let time_per_query ~repeats f =
  if repeats <= 0 then invalid_arg "Bench_util.time_per_query";
  f ();
  let _, elapsed =
    Simq_report.Timer.time (fun () ->
        for _ = 1 to repeats do
          f ()
        done)
  in
  elapsed /. float_of_int repeats

let mean = function
  | [] -> invalid_arg "Bench_util.mean: empty"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let fmt_time s = Format.asprintf "%a" Simq_report.Timer.pp_seconds s

let queries_for ~seed ~count batch =
  let state = Random.State.make [| seed |] in
  List.init count (fun i ->
      let base = batch.(i * 31 mod Array.length batch) in
      Simq_workload.Queries.perturb state base ~amount:1.0)

let bench_seed = 1995

let derived_seed offset = (bench_seed * 31) + offset
