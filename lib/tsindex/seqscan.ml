module Flat = Simq_dsp.Flat
module Series = Simq_series.Series
module Distance = Simq_series.Distance
module Relation = Simq_storage.Relation
module Pool = Simq_parallel.Pool
module Budget = Simq_fault.Budget
module Retry = Simq_fault.Retry
module Metrics = Simq_obs.Metrics
module Otrace = Simq_obs.Trace
module Profile = Simq_obs.Profile

let m_candidates =
  Metrics.counter ~help:"Entries compared by sequential scans"
    "simq_scan_candidates_total"

let m_survivors =
  Metrics.counter ~help:"Scan comparisons that produced an answer"
    "simq_scan_survivors_total"

let m_abandoned =
  Metrics.counter ~help:"Scan comparisons cut short by early abandoning"
    "simq_scan_early_abandon_total"

type result = {
  answers : (int * float) list;
  full_computations : int;
  coefficients_touched : int;
}

let check_query_length dataset spec query =
  let n = Dataset.series_length dataset in
  let expected = Spec.output_length spec ~n in
  if Series.length query <> expected then
    invalid_arg
      (Printf.sprintf "Seqscan: query length %d, expected %d"
         (Series.length query) expected)

(* One full pass of page traffic against the backing relation, in entry
   order — the touch sequence (hence the buffer-pool statistics) a
   sequential scan produces, each touch charged to the attempt's
   [budget] when it has one; no series is copied. Kept out of the
   workers so the I/O accounting stays single-domain and
   deterministic. *)
let account_io ?budget dataset =
  let relation = Dataset.relation dataset in
  for id = 0 to Dataset.cardinality dataset - 1 do
    Relation.touch ?budget relation id
  done

(* Per-entry comparison: the answer (when within ε), whether the
   distance computation ran to completion, and the coefficients (or
   time-domain points) examined. Safe to run from any domain that owns
   the accumulator it passes (only the frequency path uses it). *)
let compute_warp ~abandon dataset spec epsilon (q : Dataset.query) _acc _slot
    id =
  let transformed = Spec.apply_series spec (Dataset.normal dataset id) in
  let touched = Series.length transformed in
  let d =
    if abandon then
      Distance.euclidean_early_abandon ~threshold:epsilon transformed
        q.Dataset.qnormal
    else Some (Distance.euclidean transformed q.Dataset.qnormal)
  in
  match d with
  | Some d when d <= epsilon -> (Some (id, d), 1, touched)
  | _ -> (None, 1, touched)

(* [limit] is the kernel's abandon limit: [epsilon²] when abandoning,
   [infinity] otherwise; a sum past it by rounding alone (root not above
   [epsilon]) is completed. The entry's spectrum is slot [s] of [spectra]. *)
let compute_freq ~stretch ~n ~limit ~spectra epsilon (q : Dataset.query) acc
    s id =
  acc.Flat.sum <- 0.;
  let x = s * n and qs = q.Dataset.qspectrum in
  let touched = Flat.sq_dist ~stretch ~limit ~lo:0 ~hi:n spectra x qs 0 acc in
  if acc.Flat.sum > limit && sqrt acc.Flat.sum > epsilon then
    (None, 0, touched)
  else begin
    let rest =
      Flat.sq_dist ~stretch ~limit:infinity ~lo:touched ~hi:n spectra x qs 0 acc
    in
    let d = sqrt acc.Flat.sum in
    ((if d <= epsilon then Some (id, d) else None), 1, touched + rest)
  end

(* Frequency-domain scan for the length-preserving transformations; the
   time-warp changes the series length, so its distances are computed in
   the time domain (same value by Parseval, no early-abandon benefit on
   the warped prefix).

   The scan walks the spectrum buffer in slot order, front to back. The
   slots are cut into chunks fanned out over the pool; each chunk keeps
   its own answers and counters, the chunks are merged in chunk order
   and the answers sorted by id, so answers, distances and counters are
   bit-identical to a single-domain scan in any layout. An answer
   outside the side-constraint [sides] ({!Dataset.side_ranges}) is
   dropped. *)
let scan_compute ~pool ~abandon ?bstate ?sides dataset spec query epsilon =
  let q = Dataset.prepare_query query in
  let n = Dataset.series_length dataset in
  let limit = if abandon then epsilon *. epsilon else infinity in
  let count = Dataset.cardinality dataset in
  let compute =
    match spec with
    | Spec.Warp _ -> compute_warp ~abandon dataset spec epsilon q
    | _ ->
      let stretch = Some (Spec.stretch spec ~n) in
      compute_freq ~stretch ~n ~limit ~spectra:(Dataset.spectra dataset)
        epsilon q
  in
  let keep =
    match sides with
    | None -> fun _ -> true
    | Some s -> Dataset.within_sides s dataset
  in
  let chunk = Pool.chunk_size pool count in
  let partials =
    Pool.map_chunks ~pool ~chunk ~n:count (fun ~lo ~hi ->
        let answers = ref [] in
        let full = ref 0 in
        let touched = ref 0 in
        let acc = Flat.acc () in
        for i = lo to hi - 1 do
          (* Cooperative cancellation: every domain passes through here,
             so a budget blown anywhere stops all chunks promptly. Each
             entry costs one comparison whether or not it abandons. *)
          Budget.comparisons bstate 1;
          let answer, completed, examined =
            compute acc i (Dataset.id_at dataset i)
          in
          (match answer with
          | Some ((id, _) as hit) when keep id -> answers := hit :: !answers
          | _ -> ());
          full := !full + completed;
          touched := !touched + examined
        done;
        let answers = List.rev !answers in
        (* Per-chunk metric adds: totals over all chunks cover the whole
           entry array exactly once, so merged counters are identical at
           every domain count. *)
        Metrics.add m_candidates (hi - lo);
        Metrics.add m_survivors (List.length answers);
        Metrics.add m_abandoned (hi - lo - !full);
        (answers, !full, !touched))
  in
  Otrace.with_span "seqscan.merge" (fun () ->
      let full, touched =
        List.fold_left
          (fun (full, touched) (_, f, t) -> (full + f, touched + t))
          (0, 0) partials
      in
      {
        answers =
          List.sort (fun (a, _) (b, _) -> Int.compare a b)
            (List.concat_map (fun (a, _, _) -> a) partials);
        full_computations = full;
        coefficients_touched = touched;
      })

let resolve_pool = function Some pool -> pool | None -> Pool.default ()

(* The common profiled body: one io child (page traffic), one compute
   child, counters recorded on the coordinating domain only, after the
   deterministic chunk merge — so the profile tree and its counters
   are identical at every domain count. *)
let profiled_scan ~pool ~abandon ?bstate ?sides ?profile dataset spec query
    epsilon =
  let count = Dataset.cardinality dataset in
  (* A page fault aborts the attempt here: the bracket closes the node,
     so a retried attempt's nodes sit beside this one, not inside it. *)
  Profile.with_op profile "seqscan.io" (fun pio ->
      account_io ?budget:bstate dataset;
      Profile.add_pages pio count);
  Profile.with_op profile "seqscan.compute" @@ fun pc ->
  let result =
    scan_compute ~pool ~abandon ?bstate ?sides dataset spec query epsilon
  in
  let survivors = List.length result.answers in
  Profile.add_rows_in pc count;
  Profile.add_candidates pc count;
  Profile.add_rows_out pc survivors;
  Profile.add_survivors pc survivors;
  Profile.add_early_abandon pc (count - result.full_computations);
  result

let scan ?pool ?profile ~abandon dataset spec query epsilon =
  check_query_length dataset spec query;
  if not (Float.is_finite epsilon) || epsilon < 0. then
    invalid_arg "Seqscan: epsilon must be finite and >= 0";
  let pool = resolve_pool pool in
  Profile.with_op profile "seqscan.range" @@ fun pn ->
  let result =
    profiled_scan ~pool ~abandon ?profile dataset spec query epsilon
  in
  Profile.add_rows_in pn (Dataset.cardinality dataset);
  Profile.add_rows_out pn (List.length result.answers);
  result

let range_full ?pool ?(spec = Spec.Identity) ?profile dataset ~query ~epsilon =
  scan ?pool ?profile ~abandon:false dataset spec query epsilon

let range_early_abandon ?pool ?(spec = Spec.Identity) ?profile dataset ~query
    ~epsilon =
  scan ?pool ?profile ~abandon:true dataset spec query epsilon

let range_checked ?pool ?(spec = Spec.Identity) ?mean_window ?std_band
    ?(budget = Budget.unlimited) ?profile dataset ~query ~epsilon =
  check_query_length dataset spec query;
  if not (Float.is_finite epsilon) || epsilon < 0. then
    invalid_arg "Seqscan: epsilon must be finite and >= 0";
  let sides = Dataset.side_ranges ?mean_window ?std_band query in
  let pool = resolve_pool pool in
  Profile.with_op profile "seqscan.range" @@ fun pn ->
  let result =
    Retry.with_retries ?profile ~budget (fun bstate ->
        profiled_scan ~pool ~abandon:true ?bstate ~sides ?profile dataset
          spec query epsilon)
  in
  (match result with
  | Ok r ->
    Profile.add_rows_in pn (Dataset.cardinality dataset);
    Profile.add_rows_out pn (List.length r.answers)
  | Error e -> Profile.add_event pn ("error: " ^ Simq_fault.Error.kind e));
  result

let reference ?(spec = Spec.Identity) ?(normalise_query = true) dataset ~query
    ~epsilon =
  check_query_length dataset spec query;
  let q = Dataset.prepare_query ~normalise:normalise_query query in
  List.init (Dataset.cardinality dataset) Fun.id
  |> List.filter_map (fun id ->
         let d =
           Distance.euclidean
             (Spec.apply_series spec (Dataset.normal dataset id))
             q.Dataset.qnormal
         in
         if d <= epsilon then Some (id, d) else None)
