module Flat = Simq_dsp.Flat
module Distance = Simq_series.Distance
module Pool = Simq_parallel.Pool
module Budget = Simq_fault.Budget
module Retry = Simq_fault.Retry
module Metrics = Simq_obs.Metrics
module Otrace = Simq_obs.Trace
module Profile = Simq_obs.Profile

let m_comparisons =
  Metrics.counter ~help:"Pairwise distance comparisons by join scans"
    "simq_join_comparisons_total"

let m_pairs =
  Metrics.counter ~help:"Joined pairs within epsilon" "simq_join_pairs_total"

type result = {
  pairs : (int * int) list;
  distance_computations : int;
  node_accesses : int;
  admission : Simq_admission.decision option;
}

(* The largest double [t] with [sqrt t <= epsilon]. The rounded root is
   monotone, so a pair's sum passes [sum <= t] exactly when its
   distance [sqrt sum] is within ε, with no root taken per pair; the
   rounded [fl(ε²)] alone loses a sum that rounds above it although
   its root is ε. [t] is [fl(ε²)] or a few ulps from it; when [ε²]
   overflows, every finite sum passes. *)
let sq_threshold epsilon =
  let t = ref (epsilon *. epsilon) in
  if Float.is_finite !t then begin
    while sqrt !t > epsilon do
      t := Float.pred !t
    done;
    while sqrt (Float.succ !t) <= epsilon do
      t := Float.succ !t
    done
  end;
  !t

(* How far apart the band keys of a pair within ε can lie. A hit's sum
   is at least coefficient 1's term, so [fl(dr²) <= t] for the
   difference [dr] of its keys and the threshold [t] above. As
   [sqrt t] rounds to at most ε, [t <= ε²(1 + u)²] for the unit
   roundoff [u], and the keys differ by at most
   [ε·(1 + u)/(1 - u)^(3/2) < ε·(1 + 3u)] — or, when [dr²] underflows,
   by less than [2^-511], which the additive term covers. When [ε²]
   overflows, every pair is a hit. *)
let band_width epsilon =
  if Float.is_finite (epsilon *. epsilon) then
    (epsilon *. (1. +. 1e-9)) +. 1e-153
  else infinity

(* The (i, j) order of the double loop. *)
let compare_pairs (a, b) (c, d) =
  if a <> c then Int.compare a c else Int.compare b d

(* The pairwise scans parallelise over the outer row: a chunk of rows
   produces its pairs plus its own comparison counter, and chunks merge
   in row order, so the pairs and the counters are the sequential
   loop's at every domain count (the band join then sorts its pairs
   into (i, j) order). Rows differ in length — they shrink as the row
   grows, and a band window is widest where keys are densest — so
   chunks are kept small to balance load. *)
let scan ?pool ?bstate ?profile ~abandon kindex spec epsilon =
  if not (Float.is_finite epsilon) || epsilon < 0. then
    invalid_arg "Join.scan: epsilon must be finite and >= 0";
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let dataset = Kindex.dataset kindex in
  let count = Dataset.cardinality dataset in
  let threshold = sq_threshold epsilon in
  let n = Dataset.series_length dataset in
  let stretch () = Spec.stretch spec ~n in
  (* Entry [i]'s spectrum, read in place from the data set's buffer
     at its slot, and its head from the dense head table. *)
  let spectra = Dataset.spectra dataset and heads = Dataset.heads dataset in
  let slots () = Array.init count (Dataset.slot dataset) in
  (* [row_for ~lo ~hi] is a chunk's row function: it adds row [p]'s
     pairs to the list and returns its comparisons. [canonical] orders
     the merged pairs. *)
  let row_for, canonical =
    match spec with
    | Spec.Warp _ ->
      (* Frequency-domain prefixes underestimate warped distances; use
         the exact time-domain comparison instead, over the transformed
         normal forms by id: a pure per-entry map, so it fans out over
         the pool too, each chunk filling its own ids. *)
      let normals = Array.make count [||] in
      ignore
        (Pool.map_chunks ~pool ~chunk:(Pool.chunk_size pool count) ~n:count
           (fun ~lo ~hi ->
             for id = lo to hi - 1 do
               normals.(id) <-
                 Spec.apply_series spec (Dataset.normal dataset id)
             done)
          : unit list);
      ( (fun ~lo:_ ~hi:_ pairs i ->
          for j = i + 1 to count - 1 do
            let hit =
              if abandon then
                Distance.within ~threshold:epsilon normals.(i) normals.(j)
              else Distance.euclidean normals.(i) normals.(j) <= epsilon
            in
            if hit then pairs := (i, j) :: !pairs
          done;
          count - 1 - i),
        Fun.id )
    | _ when not abandon ->
      (* Method (a): every later row, in id order, never abandoned.
         Only the [count × head_width] head buffer is materialised. *)
      let rows = Flat.rows ~stretch:(stretch ()) ~heads spectra (slots ()) in
      ( (fun ~lo ~hi:_ ->
          (* The chunk's own hit buffer, long enough for its first and
             longest row: domains never share one. *)
          let hits = Array.make (count - lo) 0 in
          fun pairs i ->
            let found =
              Flat.within_row rows ~limit:infinity ~threshold ~i
                ~j0:(i + 1) hits
            in
            for h = 0 to found - 1 do
              pairs := (i, hits.(h)) :: !pairs
            done;
            count - 1 - i),
        Fun.id )
    | _ ->
      (* Method (b), a band join: positions sorted by the real part of
         stretched coefficient 1, a lower bound on the pair distance,
         so row [p] compares only the later positions whose key is
         within the band width of its own. Coefficient [n − 1], the
         twin of coefficient 1, adds as much to the distance, so with
         twins the band narrows to about ε/√2, and so do the pre-pass
         and the head exit ({!Kindex.twin_slack}). The keys and the
         stretched heads come from the dense head table, so setting up
         the band reads no spectrum. *)
      let stretch = stretch () and slots = slots () in
      let keys =
        Array.map (fun slot -> Flat.sort_key ~stretch heads ~slot) slots
      in
      let order = Flat.key_order keys in
      let slack = Kindex.twin_slack kindex spec ~query_norm:0. in
      let rows =
        Flat.mirrored (Flat.rows ~stretch ~order ~heads spectra slots) ~slack
      in
      let width =
        Float.min (band_width epsilon) (Flat.twin_radius ~slack epsilon)
      in
      (* [ends.(p)]: one past row [p]'s window. Rounding is monotone,
         so a key within [width] of row [p]'s stays under the rounded
         bound, and bounds, hence ends, grow with [p] (NaN keys sort
         first, with empty windows: a NaN is never a hit). *)
      let ends = Array.make count 0 in
      let e = ref 0 in
      for p = 0 to count - 1 do
        let bound = keys.(order.(p)) +. width in
        e := Int.max !e (p + 1);
        while !e < count && keys.(order.(!e)) <= bound do
          incr e
        done;
        ends.(p) <- !e
      done;
      ( (fun ~lo ~hi ->
          let widest = ref 0 in
          for p = lo to hi - 1 do
            widest := Int.max !widest (ends.(p) - p - 1)
          done;
          let buf = Array.make !widest 0 in
          fun pairs p ->
            let found =
              Flat.within_band rows ~limit:threshold ~threshold ~i:p
                ~j1:ends.(p) buf
            in
            let a = order.(p) in
            for h = 0 to found - 1 do
              let b = order.(buf.(h)) in
              pairs := (Int.min a b, Int.max a b) :: !pairs
            done;
            ends.(p) - p - 1),
        List.sort compare_pairs )
  in
  let chunk = Pool.chunk_size pool count in
  Profile.with_op profile "join.scan" @@ fun pn ->
  let partials =
    Pool.map_chunks ~pool ~chunk ~n:count (fun ~lo ~hi ->
        let pairs = ref [] in
        let comparisons = ref 0 in
        let row = row_for ~lo ~hi in
        for i = lo to hi - 1 do
          (* Budget granularity is one outer row: the row is checked
             and charged the comparisons it made once it is done. Every
             domain passes through here, so cancellation reaches all
             chunks. *)
          let c = row pairs i in
          Budget.comparisons bstate c;
          comparisons := !comparisons + c
        done;
        let pairs = List.rev !pairs in
        Metrics.add m_comparisons !comparisons;
        Metrics.add m_pairs (List.length pairs);
        (pairs, !comparisons))
  in
  Otrace.with_span "join.merge" @@ fun () ->
  let result =
    {
      pairs = canonical (List.concat_map fst partials);
      distance_computations =
        List.fold_left (fun acc (_, c) -> acc + c) 0 partials;
      node_accesses = 0;
      admission = None;
    }
  in
  Profile.add_rows_in pn count;
  Profile.add_candidates pn result.distance_computations;
  Profile.add_rows_out pn (List.length result.pairs);
  Profile.add_survivors pn (List.length result.pairs);
  result

let scan_full ?pool ?(spec = Spec.Identity) ?profile kindex ~epsilon =
  scan ?pool ?profile ~abandon:false kindex spec epsilon

let scan_early_abandon ?pool ?(spec = Spec.Identity) ?profile kindex ~epsilon =
  scan ?pool ?profile ~abandon:true kindex spec epsilon

(* Admission runs once, before any comparison: a self-join's pair count
   n (n - 1) / 2 is a catalogue fact, so the decision is a pure function
   of the budget and a registry snapshot — identical at every domain
   count. A rejection returns before anything is materialised or
   compared. *)
let admitted ?admission ~budget kindex run =
  let decision =
    Option.map
      (fun policy ->
        let n = Dataset.cardinality (Kindex.dataset kindex) in
        Simq_admission.decide_pairs policy
          ~comparisons:(n * (n - 1) / 2)
          ~budget)
      admission
  in
  match decision with
  | Some (Simq_admission.Reject reject) ->
    Error (Simq_admission.error_of_reject reject)
  | Some Simq_admission.Admit | Some Simq_admission.Degrade_to_scan | None ->
    Result.map (fun r -> { r with admission = decision }) (run ())

let scan_checked ?pool ?(spec = Spec.Identity) ?(abandon = true)
    ?(budget = Budget.unlimited) ?admission ?profile kindex ~epsilon =
  if not (Float.is_finite epsilon) || epsilon < 0. then
    invalid_arg "Join.scan: epsilon must be finite and >= 0";
  admitted ?admission ~budget kindex @@ fun () ->
  Retry.with_retries ?profile ~budget (fun bstate ->
      scan ?pool ?bstate ?profile ~abandon kindex spec epsilon)

(* Methods (c) and (d): every entry posed as a prepared query to the
   k-index's own range attempt ({!Kindex.range_attempt}), the whole
   join one attempt under the budget. Outside the warp, entry [i]'s
   query is its stored spectrum stretched once, so its features are the
   stretched prefix and each candidate's kernel sum is the scan join's
   per-pair sum, bit for bit; the warp keeps its time-domain query, the
   warped normal form. Answers come sorted by id, so the pairs are in
   (i, j) order, each unordered pair in both directions. *)
let index ?(spec = Spec.Identity) ?(budget = Budget.unlimited) ?admission
    ?profile kindex ~epsilon =
  if not (Float.is_finite epsilon) || epsilon < 0. then
    invalid_arg "Join.index: epsilon must be finite and >= 0";
  admitted ?admission ~budget kindex @@ fun () ->
  let dataset = Kindex.dataset kindex in
  let count = Dataset.cardinality dataset in
  let n = Dataset.series_length dataset in
  let prepared = Kindex.prepare kindex spec in
  let query =
    match spec with
    | Spec.Warp _ ->
      fun i ->
        Dataset.prepare_query ~normalise:false
          (Spec.apply_series spec (Dataset.normal dataset i))
    | _ ->
      (* One buffer for every entry: only the warp's distance reads the
         time-domain series, so none is made. *)
      let stretch = Spec.stretch spec ~n and spectra = Dataset.spectra dataset in
      let q = { Dataset.qnormal = [||]; qspectrum = Flat.create n } in
      fun i ->
        Flat.stretch_prefix ~stretch spectra
          ~xo:(Dataset.slot dataset i * n)
          ~len:n q.Dataset.qspectrum ~off:0;
        q
  in
  Retry.with_retries ?profile ~budget @@ fun bstate ->
  (* One flat operator node for the whole nested-query loop: a child
     per inner range query would drown the tree in [cardinality]
     nodes. *)
  Profile.with_op profile "join.index" @@ fun pn ->
  let pairs = ref [] in
  let computations = ref 0 in
  let node_accesses = ref 0 in
  for i = 0 to count - 1 do
    let r = Kindex.range_attempt kindex prepared bstate (query i) ~epsilon in
    computations := !computations + r.Kindex.candidates;
    node_accesses := !node_accesses + r.Kindex.node_accesses;
    List.iter
      (fun (id, _) -> if id <> i then pairs := (i, id) :: !pairs)
      r.Kindex.answers
  done;
  Simq_rtree.Rstar.add_accesses (Kindex.tree kindex) !node_accesses;
  Metrics.add m_comparisons !computations;
  Metrics.add m_pairs (List.length !pairs);
  Profile.add_rows_in pn count;
  Profile.add_candidates pn !computations;
  Profile.add_pages pn !node_accesses;
  Profile.add_rows_out pn (List.length !pairs);
  Profile.add_survivors pn (List.length !pairs);
  { pairs = List.rev !pairs; distance_computations = !computations;
    node_accesses = !node_accesses; admission = None }
