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

(* The transformed normal forms by id (time domain, exact for every
   spec including Warp): a pure per-entry map, so it fans out over the
   pool too, each chunk filling its own ids. *)
let transformed_normals ~pool kindex spec =
  let dataset = Kindex.dataset kindex in
  let count = Dataset.cardinality dataset in
  let normals = Array.make count [||] in
  let fill ~lo ~hi =
    for id = lo to hi - 1 do
      normals.(id) <-
        Spec.apply_series spec (Dataset.get dataset id).Dataset.normal
    done
  in
  ignore
    (Pool.map_chunks ~pool ~chunk:(Pool.chunk_size pool count) ~n:count fill
      : unit list);
  normals

(* How far apart the band keys of a pair within ε can lie. A hit's sum
   is at least coefficient 1's term, so [fl(dr²) <= fl(ε²)] for the
   difference [dr] of its keys, and the keys differ by at most
   [ε·(1 + 3u)] — or, when [dr²] underflows, by less than [2^-511],
   which the additive term covers. When [ε²] overflows, every pair
   is a hit. *)
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
  let limit = epsilon *. epsilon in
  let n = Dataset.series_length dataset in
  let stretch () = Flat.of_cpx (Spec.stretch spec ~n) in
  (* Entry [i]'s spectrum, read in place from the data set's buffer. *)
  let spectra = Dataset.spectra dataset in
  let offsets () = Array.init count (fun i -> Dataset.slot dataset i * n) in
  (* [row_for ~lo ~hi] is a chunk's row function: it adds row [p]'s
     pairs to the list and returns its comparisons. [canonical] orders
     the merged pairs. *)
  let row_for, canonical =
    match spec with
    | Spec.Warp _ ->
      (* Frequency-domain prefixes underestimate warped distances; use
         the exact time-domain comparison instead. *)
      let normals = transformed_normals ~pool kindex spec in
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
      let rows = Flat.rows ~stretch:(stretch ()) spectra (offsets ()) in
      ( (fun ~lo ~hi:_ ->
          (* The chunk's own hit buffer, long enough for its first and
             longest row: domains never share one. *)
          let hits = Array.make (count - lo) 0 in
          fun pairs i ->
            let found =
              Flat.within_row rows ~limit:infinity ~threshold:limit ~i
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
         within the band width of its own. *)
      let stretch = stretch () and offsets = offsets () in
      let keys =
        Array.map (fun off -> Flat.sort_key ~stretch spectra ~off) offsets
      in
      let order = Array.init count Fun.id in
      Array.stable_sort (fun a b -> Float.compare keys.(a) keys.(b)) order;
      let rows = Flat.rows ~stretch ~order spectra offsets in
      let width = band_width epsilon in
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
              Flat.within_band rows ~limit ~threshold:limit ~i:p
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
  let chunk = max 1 (count / (16 * Pool.domains pool)) in
  let pn = Profile.enter profile "join.scan" in
  Fun.protect ~finally:(fun () -> Profile.leave profile pn) @@ fun () ->
  Otrace.with_span "join.scan" @@ fun () ->
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

let scan_checked ?pool ?(spec = Spec.Identity) ?(abandon = true)
    ?(budget = Budget.unlimited) ?admission ?profile kindex ~epsilon =
  if not (Float.is_finite epsilon) || epsilon < 0. then
    invalid_arg "Join.scan: epsilon must be finite and >= 0";
  (* Admission runs once, before any comparison: the join's comparison
     count n (n - 1) / 2 is a catalogue fact, so the decision is a pure
     function of the budget and a registry snapshot — identical at
     every domain count. *)
  let decision =
    match admission with
    | None -> None
    | Some policy ->
      let n = Dataset.cardinality (Kindex.dataset kindex) in
      Some
        (Simq_admission.decide_pairs policy
           ~comparisons:(n * (n - 1) / 2)
           ~budget)
  in
  match decision with
  | Some (Simq_admission.Reject reject) ->
    (* Refused before execution: no transformed normal or spectrum is
       materialised, no comparison runs. *)
    Error (Simq_admission.error_of_reject reject)
  | Some Simq_admission.Admit | Some Simq_admission.Degrade_to_scan | None ->
    Retry.with_retries ?profile ~budget (fun bstate ->
        { (scan ?pool ?bstate ?profile ~abandon kindex spec epsilon) with
          admission = decision })

(* One index range query per sequence; the transformation (when present)
   applies to both the stored side (via the transformed traversal) and
   the query side (its features and the postprocessing distance). *)
let index_join ?profile kindex spec epsilon =
  if not (Float.is_finite epsilon) || epsilon < 0. then
    invalid_arg "Join.index_join: epsilon must be finite and >= 0";
  let dataset = Kindex.dataset kindex in
  let k = (Kindex.config kindex).Feature.k in
  let normals = transformed_normals ~pool:(Pool.default ()) kindex spec in
  (* Query features for entry i: the first k coefficients of its
     transformed spectrum (for Warp these are the predicted prefix of the
     warped spectrum, which is all the index needs). *)
  let n = Dataset.series_length dataset and spectra = Dataset.spectra dataset in
  let at (e : Dataset.entry) = Dataset.slot dataset e.Dataset.id * n in
  let query_coeffs =
    match spec with
    | Spec.Identity ->
      fun (e : Dataset.entry) -> Flat.sub spectra ~pos:(at e + 1) ~len:k
    | _ ->
      (* Only coefficients [1 .. k] are stretched, with [Complex.mul] —
         the formula every stretched spectrum is computed with. *)
      let stretch = Spec.stretch spec ~n in
      fun (e : Dataset.entry) ->
        Array.init k (fun f ->
            Complex.mul stretch.(f + 1) (Flat.coeff spectra (at e + f + 1)))
  in
  let prepared = Kindex.prepare kindex spec in
  (* One flat operator node for the whole nested-query loop: a child
     per inner range query would drown the tree in [cardinality]
     nodes. *)
  let pn = Profile.enter profile "join.index" in
  Fun.protect ~finally:(fun () -> Profile.leave profile pn) @@ fun () ->
  Otrace.with_span "join.index" @@ fun () ->
  let pairs = ref [] in
  let computations = ref 0 in
  let node_accesses = ref 0 in
  for i = 0 to Dataset.cardinality dataset - 1 do
    let query_coeffs = query_coeffs (Dataset.get dataset i) in
    let distance (candidate : Dataset.entry) =
      Distance.euclidean normals.(candidate.Dataset.id) normals.(i)
    in
    let r =
      Kindex.range_prepared kindex prepared ~query_coeffs ~epsilon ~distance
    in
    computations := !computations + r.Kindex.candidates;
    node_accesses := !node_accesses + r.Kindex.node_accesses;
    List.iter
      (fun ((candidate : Dataset.entry), _) ->
        if candidate.Dataset.id <> i then
          pairs := (i, candidate.Dataset.id) :: !pairs)
      r.Kindex.answers
  done;
  Metrics.add m_comparisons !computations;
  Metrics.add m_pairs (List.length !pairs);
  Profile.add_rows_in pn (Dataset.cardinality dataset);
  Profile.add_candidates pn !computations;
  Profile.add_pages pn !node_accesses;
  Profile.add_rows_out pn (List.length !pairs);
  Profile.add_survivors pn (List.length !pairs);
  { pairs = List.rev !pairs; distance_computations = !computations;
    node_accesses = !node_accesses; admission = None }

let index_untransformed ?profile kindex ~epsilon =
  index_join ?profile kindex Spec.Identity epsilon

let index_transformed ?(spec = Spec.Identity) ?profile kindex ~epsilon =
  index_join ?profile kindex spec epsilon
