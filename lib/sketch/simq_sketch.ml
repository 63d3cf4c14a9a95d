module Flat = Simq_dsp.Flat
module Dataset = Simq_tsindex.Dataset
module Spec = Simq_tsindex.Spec
module Kindex = Simq_tsindex.Kindex
module Metrics = Simq_obs.Metrics

let m_filtered_coarse =
  Metrics.counter ~help:"Candidates dismissed by the sketch funnel, by level"
    ~labels:[ ("level", "coarse") ]
    "simq_sketch_filtered_total"

let m_filtered_segment =
  Metrics.counter ~help:"Candidates dismissed by the sketch funnel, by level"
    ~labels:[ ("level", "segment") ]
    "simq_sketch_filtered_total"

type config = { coarse : int; segments : int }

let default = { coarse = 2; segments = 8 }

type t = {
  dataset : Dataset.t;
  config : config;
  (* Segment means of every normal form, indexed by entry id; never
     mutated, so concurrent traversals never race on the table. *)
  segmeans : float array array;
}

(* Both-ends coarse frequency set: {1..c} and their conjugate mirrors
   {n-c..n-1}, clamped inside [1, n-1] (coefficient 0 of a normal form
   is always 0 on both sides), as ascending half-open coefficient
   ranges — one when the two halves meet, two otherwise. For real
   series the mirror of f carries the conjugate coefficient, so taking
   both halves doubles the captured energy without reading more of the
   record. *)
let coarse_ranges ~n ~coarse =
  let low_hi = Int.min coarse (n - 1) + 1 and high_lo = Int.max 1 (n - coarse) in
  if high_lo <= low_hi then [ (1, n) ] else [ (1, low_hi); (high_lo, n) ]

(* Segment lengths of an n-point series cut into [segments] pieces:
   the first [n mod s] segments carry one extra point. Query and data
   sides must agree on the cut, so it is a pure function of (n, s). *)
let seg_lengths ~n ~segments =
  let s = Int.min segments n in
  let base = n / s and rem = n mod s in
  Array.init s (fun j -> base + if j < rem then 1 else 0)

(* The segment means of [series] standardised by [mean] and [std], each
   point by {!Normal_form.standardise}'s operations as it is summed, so
   an entry's are its normal form's bit for bit; mean 0 and std 1 leave
   a finite point as it is. *)
let seg_means ~lengths ~mean ~std series =
  let means = Array.make (Array.length lengths) 0. in
  let pos = ref 0 in
  Array.iteri
    (fun j len ->
      let acc = ref 0. in
      for i = !pos to !pos + len - 1 do
        let v = if std = 0. then 0. else (series.(i) -. mean) /. std in
        acc := !acc +. v
      done;
      pos := !pos + len;
      means.(j) <- !acc /. float_of_int len)
    lengths;
  means

let create ?(config = default) dataset =
  if config.coarse < 1 then
    invalid_arg "Simq_sketch.create: coarse must be >= 1";
  if config.segments < 1 then
    invalid_arg "Simq_sketch.create: segments must be >= 1";
  let n = Dataset.series_length dataset in
  let lengths = seg_lengths ~n ~segments:config.segments in
  let segmeans =
    Array.map
      (fun (e : Dataset.entry) ->
        seg_means ~lengths ~mean:e.Dataset.mean ~std:e.Dataset.std
          e.Dataset.series)
      (Dataset.entries dataset)
  in
  { dataset; config; segmeans }

let config t = t.config

(* Every bound is scaled by this slack so a last-ulp rounding
   difference between a partial sum and the exact distance (computed
   in a different order, or in the time domain via Parseval) can never
   push a bound above the true distance — a false dismissal would
   break the exact-mode parity of Lemma 1. *)
let slack = 1. -. 1e-9

(* Partial frequency-domain distance over the coarse set: for every
   length-preserving transformation the exact postfilter distance is
   sqrt (sum over all f of |s_f X_f - Q_f|^2) (by Parseval for the
   identity), and any subset of the non-negative terms lower-bounds
   it. The ranges accumulate into one sum, in ascending coefficient
   order. *)
let coarse_bound t ~ranges ~stretch ~(q : Dataset.query)
    (entry : Dataset.entry) =
  let n = Dataset.series_length t.dataset in
  let off = Dataset.slot t.dataset entry.Dataset.id * n in
  let acc = Flat.acc () in
  List.iter
    (fun (lo, hi) ->
      ignore
        (Flat.sq_dist ~stretch ~limit:infinity ~lo ~hi
           (Dataset.spectra t.dataset) off q.Dataset.qspectrum 0 acc))
    ranges;
  sqrt acc.Flat.sum *. slack

(* Piecewise-constant lower bound (identity only): by Cauchy-Schwarz,
   the squared distance inside segment j is at least
   L_j (mean_x(j) - mean_q(j))^2, so the weighted mean differences
   lower-bound the full euclidean distance on the normal forms. *)
let segment_bound t ~lengths ~qmeans (entry : Dataset.entry) =
  let means = t.segmeans.(entry.Dataset.id) in
  let acc = ref 0. in
  Array.iteri
    (fun j len ->
      let d = means.(j) -. qmeans.(j) in
      acc := !acc +. (float_of_int len *. d *. d))
    lengths;
  sqrt !acc *. slack

let spec_levels = function
  | Spec.Warp _ -> 0
  | Spec.Identity -> 2
  | Spec.Reverse | Spec.Moving_average _ | Spec.Weighted_ma _ -> 1

let on_filtered levels level n =
  match levels.(level) with
  | "coarse" -> Metrics.add m_filtered_coarse n
  | _ -> Metrics.add m_filtered_segment n

(* The per-level bounds for one prepared query, or None when the
   transformation supports no sketch (the warp changes the length, so
   neither the spectra nor the segment cuts align). *)
let level_bounds t ~spec ~(query : Dataset.query) =
  let n = Dataset.series_length t.dataset in
  match spec with
  | Spec.Warp _ -> None
  | Spec.Identity ->
    let ranges = coarse_ranges ~n ~coarse:t.config.coarse in
    let lengths = seg_lengths ~n ~segments:t.config.segments in
    let qmeans = seg_means ~lengths ~mean:0. ~std:1. query.Dataset.qnormal in
    Some
      [|
        ("coarse", coarse_bound t ~ranges ~stretch:None ~q:query);
        ("segment", segment_bound t ~lengths ~qmeans);
      |]
  | _ ->
    let ranges = coarse_ranges ~n ~coarse:t.config.coarse in
    let stretch = Some (Spec.stretch spec ~n) in
    Some [| ("coarse", coarse_bound t ~ranges ~stretch ~q:query) |]

let funnel t ~spec ~query =
  match level_bounds t ~spec ~query with
  | None -> None
  | Some bounds ->
    let levels = Array.map fst bounds in
    Some
      {
        Kindex.levels;
        bound = (fun level entry -> (snd bounds.(level)) entry);
        on_filtered = on_filtered levels;
      }

let nn_bound t ~spec ~query =
  match level_bounds t ~spec ~query with
  | None -> None
  | Some bounds ->
    Some
      (fun entry ->
        Array.fold_left
          (fun acc (_, bound) -> Float.max acc (bound entry))
          0. bounds)
