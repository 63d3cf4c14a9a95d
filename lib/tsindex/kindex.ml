module Cpx = Simq_dsp.Cpx
module Flat = Simq_dsp.Flat
module Series = Simq_series.Series
module Distance = Simq_series.Distance
module Geometry = Simq_geometry
module Coords = Geometry.Coords
module Region = Geometry.Region
module Rect = Geometry.Rect
module Linear_transform = Geometry.Linear_transform
module Complex_transform = Geometry.Complex_transform
module Rstar = Simq_rtree.Rstar
module Nn = Simq_rtree.Nn
module Budget = Simq_fault.Budget
module Retry = Simq_fault.Retry
module Metrics = Simq_obs.Metrics
module Otrace = Simq_obs.Trace
module Profile = Simq_obs.Profile

let m_candidates =
  Metrics.counter ~help:"Index candidates returned by k-index traversals"
    "simq_kindex_candidates_total"

let m_survivors =
  Metrics.counter ~help:"Index candidates that survived the postfilter"
    "simq_kindex_survivors_total"

type t = {
  dataset : Dataset.t;
  config : Feature.config;
  tree : int Rstar.t;
}

(* The data set's spectra are laid out in the tree's leaf order (the
   STR bulk load packs neighbours in feature space into the same and
   adjacent leaves), so the refinements of one NEAREST, which pop in
   key order, read nearby slots instead of slots scattered over the
   whole buffer. *)
let default_max_fill = Image.max_fill

let build ?(config = Feature.default) ?(max_fill = default_max_fill) dataset =
  Feature.validate config ~n:(Dataset.series_length dataset);
  let items =
    Array.init (Dataset.cardinality dataset) (fun id ->
        (Feature.point config dataset id, id))
  in
  let tree = Simq_rtree.Bulk.load ~max_fill ~dims:(Feature.dims config) items in
  let order = Array.make (Array.length items) 0 and next = ref 0 in
  Rstar.iter tree ~f:(fun _ id ->
      order.(!next) <- id;
      incr next);
  Dataset.lay_out dataset order;
  { dataset; config; tree }

(* The warm path: the image's moments, slot order, head table and
   spectra become the data set as they are, and the tree is packed
   from the stored shape and leaf points, with no FFT, no feature map
   and no STR sort. *)
let of_image relation (image : Image.t) =
  let config = Feature.default in
  let dataset =
    Dataset.of_prepared relation ~means:image.Image.means
      ~stds:image.Image.stds ~ids:image.Image.ids ~heads:image.Image.heads
      image.Image.spectra
  in
  Feature.validate config ~n:(Dataset.series_length dataset);
  let dims = Feature.dims config and points = image.Image.points in
  let items =
    Array.mapi
      (fun s id ->
        let p = Array.create_float dims in
        for j = 0 to dims - 1 do
          p.(j) <- Bigarray.Array1.get points ((s * dims) + j)
        done;
        (p, id))
      image.Image.ids
  in
  let tree =
    Simq_rtree.Bulk.pack ~max_fill:default_max_fill ~dims
      ~shape:image.Image.shape items
  in
  { dataset; config; tree }

(* An image that passed its checks but still does not fit (it cannot
   have come from this code) falls back to the cold path like any
   other invalid image. A failed write costs the next open its warm
   path, nothing else; so does a relation file gone since it was
   loaded, whose permission bits the image cannot copy. *)
let open_file ~relation file =
  let path = Image.path file in
  let key = lazy (Image.key relation) in
  let like = try Some (Unix.stat file) with Unix.Unix_error _ -> None in
  let warm =
    Otrace.with_span "image.open" @@ fun () ->
    match like with
    | Some like -> (
      match Image.read ~like path (Lazy.force key) with
      | None -> None
      | Some image -> (
        try Some (of_image relation image) with Invalid_argument _ -> None))
    | None -> None
  in
  match warm with
  | Some t -> t
  | None ->
    let dataset =
      Otrace.with_span "prepare" (fun () -> Dataset.of_relation relation)
    in
    let t = Otrace.with_span "build" (fun () -> build dataset) in
    Option.iter
      (fun like ->
        Otrace.with_span "image.write" @@ fun () ->
        try
          Image.write ~like path (Lazy.force key) t.dataset
            ~shape:(Simq_rtree.Bulk.shape t.tree)
        with Sys_error _ | Unix.Unix_error _ -> ())
      like;
    t

let dataset t = t.dataset
let config t = t.config
let tree t = t.tree

type found = {
  answers : (int * float) list;
  candidates : int;
  node_accesses : int;
  partial : bool;
}

(* A multi-resolution sketch funnel ([Simq_sketch] builds one per
   query): each level maps an entry to a proved lower bound on the
   true distance, coarse levels first. The postfilter dismisses a
   candidate as soon as one level's bound clears the cutoff — Lemma 1
   applied one resolution at a time — so only the survivors of the
   finest level pay the exact distance. *)
type prefilter = {
  levels : string array;
  bound : int -> int -> float;
  on_filtered : int -> int -> unit;
}

(* [lowered] on the leading feature dimensions, identity on the
   trailing mean/std dimensions. *)
let lift lowered =
  Linear_transform.create
    ~a:(Array.append lowered.Linear_transform.a [| 1.; 1. |])
    ~b:(Array.append lowered.Linear_transform.b [| 0.; 0. |])

(* A transformation prepared for repeated queries: the safe lowering
   of its first k stretch coefficients to the index coordinate space
   (Theorems 2/3) lifted over mean/std. Identity short circuits so
   untransformed queries skip the per-entry work. *)
type prepared = { pspec : Spec.t; ptransform : Linear_transform.t option }

let prepare t spec =
  match spec with
  | Spec.Identity -> { pspec = spec; ptransform = None }
  | _ ->
    let n = Dataset.series_length t.dataset in
    let ct =
      Complex_transform.stretch
        (Spec.feature_stretch spec ~n ~k:t.config.Feature.k)
    in
    let lowered =
      match t.config.Feature.representation with
      | Coords.Polar -> Complex_transform.to_polar ct
      | Coords.Rectangular -> Complex_transform.to_rectangular ct
    in
    { pspec = spec; ptransform = Some (lift lowered) }

(* The stored side's multiplier: none for Identity (not needed) and
   Warp (length changes). *)
let pstretch t prepared =
  match prepared.pspec with
  | Spec.Identity | Spec.Warp _ -> None
  | spec -> Some (Spec.stretch spec ~n:(Dataset.series_length t.dataset))

(* The rounding allowance of [spec]'s bounds ({!Flat.rounding_slack}),
   at the length the distance is taken over. The stored series are
   normal forms, of norm √n, and so is a warp of one at its length. *)
let slack t spec ~query_norm =
  let len = Spec.output_length spec ~n:(Dataset.series_length t.dataset) in
  Flat.rounding_slack ~n:len ~gain:(Spec.gain spec)
    ~norm:(Float.max (sqrt (float_of_int len)) query_norm)

(* The mirrored bound holds for every spec but the warp, whose distance
   is not the frequency-domain kernel: the stretches of id, rev and the
   moving averages are conjugate-symmetric like the stored spectra. Its
   twins must be coefficients of their own: those of the k features
   ([n >= 2k + 2]) and of the head key's coefficients
   1 .. head_width−1 ([n >= 2·head_width]). *)
let mirrors t spec =
  let n = Dataset.series_length t.dataset and k = t.config.Feature.k in
  match spec with
  | Spec.Warp _ -> false
  | _ -> n >= 2 * Flat.head_width && n >= (2 * k) + 2

let twin_slack t spec ~query_norm =
  if mirrors t spec then slack t spec ~query_norm else infinity

let spectrum_norm x = sqrt (Flat.energy x)

(* The twin abandon's state for a finite slack, made once per query. *)
let mirror_of twin =
  if Float.is_finite twin then Some (Flat.mirror ~slack:twin) else None

(* The per-feature radius of a range query's search region: the
   mirrored radius when the twins apply, else ε (Lemma 1); both carry
   the rounding slack, without which a warp's predicted features can
   miss the query's region by an ulp when ε is within rounding of an
   answer's distance. The mirrored radius exceeds ε when ε is within a
   few τ of 0, and is used there all the same. *)
let search_radius t spec (q : Dataset.query) ~epsilon =
  let slack = slack t spec ~query_norm:(spectrum_norm q.Dataset.qspectrum) in
  if mirrors t spec then Flat.twin_radius ~slack epsilon
  else (epsilon *. (1. +. 1e-9)) +. slack

let unconstrained = Region.linear ~lo:Float.neg_infinity ~hi:Float.infinity

let full_region t ?mean_range ?std_range ~query_coeffs ~epsilon () =
  let feature_region =
    Coords.search_region t.config.Feature.representation ~query:query_coeffs
      ~epsilon
  in
  let of_range = Option.value ~default:unconstrained in
  Array.append feature_region [| of_range mean_range; of_range std_range |]

(* Transformed overlap/membership tests, dimension by dimension with no
   intermediate rectangles or points (the traversal's hot path). Data
   entries of the k-index are degenerate rectangles whose [lo] corner is
   the feature point. The overlap test is also the catalogue probe of
   {!range_probe}: applied to any box that bounds a set of feature
   points it is exactly the test the traversal applies to a node MBR,
   so pruning by it is as safe as the tree's own pruning (Lemma 1). *)
let region_tests region ptransform =
  match ptransform with
  | None ->
    ( (fun r -> Region.intersects_rect region r),
      fun (r : Rect.t) (_ : int) -> Region.contains region r.Rect.lo )
  | Some tr ->
    let a = tr.Linear_transform.a and b = tr.Linear_transform.b in
    let dims = Array.length a in
    let overlaps (r : Rect.t) =
      let rec go i =
        i >= dims
        ||
        let lo = (a.(i) *. r.Rect.lo.(i)) +. b.(i) in
        let hi = (a.(i) *. r.Rect.hi.(i)) +. b.(i) in
        let lo, hi = if lo <= hi then (lo, hi) else (hi, lo) in
        Region.meets_interval region.(i) ~lo ~hi && go (i + 1)
      in
      go 0
    in
    let matches (r : Rect.t) (_ : int) =
      let p = r.Rect.lo in
      let rec go i =
        i >= dims
        || Region.contains_value region.(i) ((a.(i) *. p.(i)) +. b.(i))
           && go (i + 1)
      in
      go 0
    in
    (overlaps, matches)

(* The engine behind every range query, with node accesses counted
   locally (never written to the tree) so read-only queries can run
   concurrently from several domains; its callers credit the tree's
   cumulative counter afterwards. *)
let range_prepared_counted ?mean_range ?std_range ?bstate ?prefilter ?approx
    ?profile t prepared ~query_coeffs ~radius ~epsilon ~distance =
  if not (Float.is_finite epsilon) || epsilon < 0. then
    invalid_arg "Kindex.range: epsilon must be finite and >= 0";
  (match approx with
  | Some a when not (Float.is_finite a) || a < 0. || a >= 1. ->
    invalid_arg "Kindex.range: approx must be in [0, 1)"
  | _ -> ());
  if Array.length query_coeffs <> t.config.Feature.k then
    invalid_arg "Kindex.range: expected k query coefficients";
  let region =
    full_region t ?mean_range ?std_range ~query_coeffs ~epsilon:radius ()
  in
  let overlaps, matches = region_tests region prepared.ptransform in
  Profile.with_op profile "kindex.range" @@ fun pn ->
  let candidate_ids, node_accesses =
    Profile.with_op profile "kindex.descent" @@ fun pd ->
    let ((ids, accesses) as found) =
      Rstar.fold_region_counted ?budget:bstate t.tree ~overlaps ~matches
        ~init:[] ~f:(fun acc _ id -> id :: acc)
    in
    Profile.add_pages pd accesses;
    Profile.add_rows_out pd (List.length ids);
    found
  in
  let candidates = List.length candidate_ids in
  Metrics.add m_candidates candidates;
  (* The sketch funnel: every level filters the whole surviving set
     before the next (finer) level runs, so the profile reads as a
     ladder of [sketch.<level>] stages between descent and the exact
     postfilter. In exact mode the cutoff is epsilon itself and Lemma 1
     keeps the answer identical; in approximate mode the cutoff
     tightens to [(1 - a) * epsilon] — dismissals may then lose answers
     whose distance lies in the slack band, never admit a wrong one.
     Bound evaluations read no page and charge nothing against the
     budget: they price strictly below one comparison. *)
  let survivor_ids =
    match prefilter with
    | None -> candidate_ids
    | Some pf ->
      let cutoff =
        match approx with None -> epsilon | Some a -> (1. -. a) *. epsilon
      in
      let ids = ref candidate_ids in
      Array.iteri
        (fun level name ->
          Profile.with_op profile ("sketch." ^ name) @@ fun pl ->
          let before = List.length !ids in
          ids :=
            List.filter
              (fun id -> pf.bound level id <= cutoff)
              !ids;
          let after = List.length !ids in
          Profile.add_rows_in pl before;
          Profile.add_rows_out pl after;
          pf.on_filtered level (before - after))
        pf.levels;
      !ids
  in
  let partial = ref false in
  let answers =
    Profile.with_op profile "kindex.postfilter" @@ fun pp ->
    let kept = ref [] in
    (try
       List.iter
         (fun id ->
           (* Each exact-distance evaluation of a candidate is one
              comparison against the budget, like a scan entry. *)
           Budget.comparisons bstate 1;
           let d = distance id in
           if d <= epsilon then kept := (id, d) :: !kept)
         survivor_ids
     with Budget.Exceeded _ when Option.is_some approx ->
       (* Approximate mode is anytime: the budget died inside the
          verification loop.
          Every answer already collected paid its exact distance, so
          the result is a sound subset — return it marked partial
          instead of failing the whole query. *)
       partial := true);
    let answers = List.sort (fun (a, _) (b, _) -> Int.compare a b) !kept in
    let survivors = List.length answers in
    Profile.add_rows_in pp (List.length survivor_ids);
    Profile.add_rows_out pp survivors;
    Profile.add_candidates pp candidates;
    Profile.add_survivors pp survivors;
    if !partial then Profile.add_event pp "anytime: budget exhausted, partial";
    answers
  in
  let survivors = List.length answers in
  Profile.add_rows_out pn survivors;
  Profile.add_candidates pn candidates;
  Profile.add_survivors pn survivors;
  Profile.add_pages pn node_accesses;
  Metrics.add m_survivors survivors;
  { answers; candidates; node_accesses; partial = !partial }

let range_within ?mean_range ?std_range ?prefilter ?approx ?profile t
    prepared ~query_coeffs ~radius ~epsilon ~distance =
  let result =
    range_prepared_counted ?mean_range ?std_range ?prefilter ?approx ?profile t
      prepared ~query_coeffs ~radius ~epsilon ~distance
  in
  Rstar.add_accesses t.tree result.node_accesses;
  result

(* One-sided: the caller's distance need not be the kernel. *)
let range_generic ?(spec = Spec.Identity) t ~query_coeffs ~epsilon ~distance =
  range_within t (prepare t spec) ~query_coeffs ~radius:epsilon ~epsilon
    ~distance

(* The exact distance used in postprocessing. Length-preserving
   transformations, the identity included, are evaluated in the
   frequency domain against the stored spectra through the one kernel
   (O(n) per candidate, like the paper's scan of the Fourier-coefficient
   relation), so index, scan and degraded-shard distances are the same
   doubles; the warp changes the length and falls back to the time
   domain. Equal to the time-domain distance by Parseval, up to
   rounding. It abandons above [within] ({!Flat.dist_within}), by the
   twin test too when the mirrored bound holds, so a result [<= within]
   is exact: the range postfilter passes epsilon. Starting from
   coefficient 0, the kernel never writes the mirror state, so the
   closure may be shared. *)
let distance_within t prepared (q : Dataset.query) ~within =
  let n = Dataset.series_length t.dataset in
  match prepared.pspec with
  | Spec.Warp _ ->
    fun id ->
      Distance.euclidean
        (Spec.apply_series prepared.pspec (Dataset.normal t.dataset id))
        q.Dataset.qnormal
  | spec ->
    let stretch = pstretch t prepared in
    let mirror =
      if within < infinity then
        mirror_of
          (twin_slack t spec ~query_norm:(spectrum_norm q.Dataset.qspectrum))
      else None
    in
    fun id ->
      let cell = { Flat.sum = within } in
      Flat.dist_within ~stretch ?mirror ~lo:0 ~hi:n
        (Dataset.spectra t.dataset)
        (Dataset.slot t.dataset id * n)
        q.Dataset.qspectrum 0 (Flat.acc ()) ~within:cell;
      cell.Flat.sum

let prepared_distance t prepared q =
  distance_within t prepared q ~within:infinity

(* The query's index features: its first k non-DC coefficients. *)
let query_coeffs t (q : Dataset.query) =
  Flat.sub q.Dataset.qspectrum ~pos:1 ~len:t.config.Feature.k

let check_query_length t spec query =
  let n = Dataset.series_length t.dataset in
  let expected = Spec.output_length spec ~n in
  if Series.length query <> expected then
    invalid_arg
      (Printf.sprintf "Kindex: query length %d, expected %d"
         (Series.length query) expected)

(* Everything about a range request that does not depend on the attempt:
   side-constraint ranges, the prepared transformation and the query
   coefficients. Shared by {!range} and {!range_checked} so a retried
   attempt re-runs only the traversal. *)
let range_request ?normalise_query ?mean_window ?std_band t spec query =
  check_query_length t spec query;
  (* GK95-style side constraints: mean and standard deviation ride along
     as the trailing index dimensions, so simple shifts and scales bound
     the search for free (the paper's reason for indexing normal forms
     with mean/std dimensions). *)
  let mean_range, std_range =
    Dataset.side_ranges ?mean_window ?std_band query
  in
  let q = Dataset.prepare_query ?normalise:normalise_query query in
  let query_coeffs = query_coeffs t q in
  let prepared = prepare t spec in
  (mean_range, std_range, q, query_coeffs, prepared)

(* The sketch argument of the public entry points is a builder
   ([Simq_sketch.funnel] partially applied): the prepared query
   only exists inside the call, so the funnel is built here, once per
   query. *)
let build_funnel sketch q =
  match sketch with None -> None | Some f -> (f q : prefilter option)

let range ?(spec = Spec.Identity) ?normalise_query ?mean_window ?std_band
    ?sketch ?approx ?profile t ~query ~epsilon =
  let mean_range, std_range, q, query_coeffs, prepared =
    range_request ?normalise_query ?mean_window ?std_band t spec query
  in
  range_within ?mean_range ?std_range
    ?prefilter:(build_funnel sketch q)
    ?approx ?profile t prepared ~query_coeffs
    ~radius:(search_radius t spec q ~epsilon)
    ~epsilon
    ~distance:(distance_within t prepared q ~within:epsilon)

let range_checked ?(spec = Spec.Identity) ?mean_window ?std_band
    ?(budget = Budget.unlimited) ?sketch ?approx ?profile t ~query ~epsilon =
  if not (Float.is_finite epsilon) || epsilon < 0. then
    invalid_arg "Kindex.range: epsilon must be finite and >= 0";
  let mean_range, std_range, q, query_coeffs, prepared =
    range_request ?mean_window ?std_band t spec query
  in
  let prefilter = build_funnel sketch q in
  let radius = search_radius t spec q ~epsilon in
  let distance = distance_within t prepared q ~within:epsilon in
  Retry.with_retries ?profile ~budget (fun bstate ->
      (* Node accesses are credited to the tree only for the attempt
         that succeeds. *)
      let result =
        range_prepared_counted ?mean_range ?std_range ?bstate ?prefilter
          ?approx ?profile t prepared ~query_coeffs ~radius ~epsilon ~distance
      in
      Rstar.add_accesses t.tree result.node_accesses;
      result)

let range_attempt t prepared bstate q ~epsilon =
  range_prepared_counted ?bstate t prepared ~query_coeffs:(query_coeffs t q)
    ~radius:(search_radius t prepared.pspec q ~epsilon)
    ~epsilon
    ~distance:(distance_within t prepared q ~within:epsilon)

let range_probe ?(spec = Spec.Identity) ?mean_window ?std_band t ~query
    ~epsilon =
  if not (Float.is_finite epsilon) || epsilon < 0. then
    invalid_arg "Kindex.range_probe: epsilon must be finite and >= 0";
  let mean_range, std_range, q, query_coeffs, prepared =
    range_request ?mean_window ?std_band t spec query
  in
  let region =
    full_region t ?mean_range ?std_range ~query_coeffs
      ~epsilon:(search_radius t spec q ~epsilon)
      ()
  in
  fst (region_tests region prepared.ptransform)

(* --- nearest neighbours -------------------------------------------------- *)

let two_pi = 2. *. Float.pi

(* [Float.min] and [Float.max], NaN and signed zeros included, inlined
   so that the node bound below boxes no float. *)
let[@inline] fmin (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if y <> y then y else x
  else if x <> x then x
  else y

let[@inline] fmax (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if x <> x then x else y
  else if y <> y then y
  else x

let[@inline] pos_mod x =
  let r = Float.rem x two_pi in
  if r < 0. then r +. two_pi else r

(* Shortest angular distance from [theta] to the interval
   [lo, hi] (on the circle): to either endpoint, around the circle. *)
let[@inline] angle_gap theta ~lo ~hi =
  let width = hi -. lo in
  if width >= two_pi then 0.
  else begin
    let offset = pos_mod (theta -. lo) in
    if offset <= width then 0. else fmin (offset -. width) (two_pi -. offset)
  end

(* Minimum |q - z| over complex z with |z| in [mag_lo, mag_hi] and
   angle z within the interval, for q of magnitude [qmag] and angle
   [qang]: law of cosines, minimised over the magnitude. *)
let[@inline] polar_mindist ~qmag ~qang ~mag_lo ~mag_hi ~ang_lo ~ang_hi =
  let mag_lo = fmax 0. mag_lo in
  let dtheta = angle_gap qang ~lo:ang_lo ~hi:ang_hi in
  let c = cos dtheta in
  let m_star =
    if c > 0. then fmin mag_hi (fmax mag_lo (qmag *. c)) else mag_lo
  in
  let d2 = (qmag *. qmag) +. (m_star *. m_star) -. (2. *. qmag *. m_star *. c) in
  sqrt (fmax 0. d2)

(* The node bound's rounding slack, relative to the squared scale of
   each feature. The polar bound cancels in the law of cosines when the
   query sits near a node (an error of a few ulps of (|q| + m)² in the
   squared distance), and when the features carry all of a series'
   energy (n <= 2k + 1) the bound is tight against the kernel distance:
   an ulp above it would leave a node unexpanded that holds an entry
   tied with, or an ulp closer than, the k-th answer. Taking
   1e-12·(|q| + m)² off per feature keeps the bound below every
   entry's kernel distance; it moves a node key by about 1e-10. *)
let bound_slack = 1e-12

(* The query side of the node bound, computed once per query: every
   feature's coordinates in both representations, the lowered
   transformation's coefficients (empty without one), so that a bound
   reads its floats from arrays, and the mirrored bound's slack. *)
type nn_query = {
  qre : float array;
  qim : float array;
  qmag : float array;
  qang : float array;
  map_a : float array;
  map_b : float array;
  twin : float;
}

let nn_query t prepared q ~twin =
  let coeffs = query_coeffs t q in
  let map_a, map_b =
    match prepared.ptransform with
    | None -> ([||], [||])
    | Some tr -> (tr.Linear_transform.a, tr.Linear_transform.b)
  in
  {
    qre = Array.map Cpx.re coeffs;
    qim = Array.map Cpx.im coeffs;
    qmag = Array.map Cpx.abs coeffs;
    qang = Array.map Cpx.angle coeffs;
    map_a;
    map_b;
    twin;
  }

(* Coordinate [x] of dimension [j] under the lowered transformation,
   as [Linear_transform.apply] computes it. *)
let[@inline] corner nq ~mapped j x =
  if mapped then (nq.map_a.(j) *. x) +. nq.map_b.(j) else x

(* A lower bound of the distance from the query to every entry under a
   node with MBR [r] ([RKV95]'s MINDIST, per feature), written into
   [cell]. Under a transformation each feature's interval is
   [Linear_transform.apply_rect]'s — both corners mapped, then ordered
   by [Rect.create]'s min/max — computed in place, so the bound maps no
   rectangle and boxes no float. Every feature's twin adds as much
   again: the mirrored bound √2·b − τ ({!Flat.rounding_slack}) is kept
   when it is the larger, which it is unless b is within a few τ of
   0 ([τ = infinity] leaves b). *)
let node_bound t nq (r : Rect.t) (cell : Flat.acc) =
  let lo = r.Rect.lo and hi = r.Rect.hi in
  let mapped = Array.length nq.map_a > 0 in
  let polar =
    match t.config.Feature.representation with
    | Coords.Polar -> true
    | Coords.Rectangular -> false
  in
  let acc = ref 0. and tol = ref 0. in
  for i = 0 to t.config.Feature.k - 1 do
    let ia = 2 * i and ib = (2 * i) + 1 in
    let xa = corner nq ~mapped ia lo.(ia)
    and ya = corner nq ~mapped ia hi.(ia) in
    let xb = corner nq ~mapped ib lo.(ib)
    and yb = corner nq ~mapped ib hi.(ib) in
    let lo_a = if mapped then fmin xa ya else xa in
    let hi_a = if mapped then fmax xa ya else ya in
    let lo_b = if mapped then fmin xb yb else xb in
    let hi_b = if mapped then fmax xb yb else yb in
    let d =
      if polar then begin
        let qmag = nq.qmag.(i) in
        let scale = qmag +. Float.abs hi_a in
        tol := !tol +. (scale *. scale);
        polar_mindist ~qmag ~qang:nq.qang.(i) ~mag_lo:lo_a ~mag_hi:hi_a
          ~ang_lo:lo_b ~ang_hi:hi_b
      end
      else begin
        let re = nq.qre.(i) and im = nq.qim.(i) in
        let dre = re -. fmax lo_a (fmin hi_a re) in
        let dim = im -. fmax lo_b (fmin hi_b im) in
        let scale =
          Float.abs re +. Float.abs im
          +. fmax (Float.abs lo_a) (Float.abs hi_a)
          +. fmax (Float.abs lo_b) (Float.abs hi_b)
        in
        tol := !tol +. (scale *. scale);
        sqrt ((dre *. dre) +. (dim *. dim))
      end
    in
    acc := !acc +. (d *. d)
  done;
  let b = sqrt (fmax 0. (!acc -. (bound_slack *. !tol))) in
  cell.Flat.sum <- fmax b ((1.4142135623730951 *. b) -. nq.twin)

(* The NN sketch argument is also a builder: applied to the prepared
   query it yields a per-entry lower bound (the max over the funnel's
   levels). When given, it replaces the head bound below as the key
   data entries are queued under; refinement is the same. *)
let nn_point_bound sketch q =
  match sketch with
  | None -> None
  | Some f ->
    Option.map
      (fun bound (_ : Rect.t) id (cell : Flat.acc) ->
        cell.Flat.sum <- bound id)
      (f q : (int -> float) option)

let nn_detail ~k point_bound =
  match point_bound with
  | None -> Printf.sprintf "k=%d" k
  | Some _ -> Printf.sprintf "k=%d sketch" k

(* Multi-step NN refinement on the one kernel, for the
   length-preserving transformations: an entry's key is the square
   root of the kernel sum over the head coefficients, read from the
   dataset's head table (one cache line per entry) — with twins,
   [sqrt (T0 + 2·(T1 + T2 + T3)) − τ] ({!Dataset.head_twin_sq_dist},
   {!Flat.rounding_slack}), coefficient 0 being its own twin; refinement
   recomputes the plain head sum — the same doubles in the same order —
   and resumes the same accumulator over the tail of the stored
   spectrum ({!Flat.dist_within}), so a refined distance is exactly
   {!prepared_distance}'s, and an entry is abandoned only when its
   distance is above [within]: by the twin test up to coefficient
   ⌈n/2⌉−1, with the head's coefficient-0 term recorded in the mirror
   state, then by [sqrt partial > within]. Keys and distances are
   written into the traversal's cell. The warp changes the length and
   keeps its time-domain distance. The accumulator and the mirror
   state belong to one query. *)
let nn_refinement t prepared (q : Dataset.query) ~twin ~count =
  match prepared.pspec with
  | Spec.Warp _ -> None
  | _ ->
    let ds = t.dataset in
    let n = Dataset.series_length ds and spectra = Dataset.spectra ds in
    let stretch = pstretch t prepared and qs = q.Dataset.qspectrum in
    let acc = Flat.acc () in
    let key =
      if Float.is_finite twin then fun (_ : Rect.t) id (cell : Flat.acc) ->
        Dataset.head_twin_sq_dist ds ~stretch (Dataset.slot ds id) qs cell;
        cell.Flat.sum <- fmax 0. (sqrt cell.Flat.sum -. twin)
      else fun (_ : Rect.t) id (cell : Flat.acc) ->
        ignore (Dataset.head_sq_dist ds ~stretch (Dataset.slot ds id) qs cell);
        cell.Flat.sum <- sqrt cell.Flat.sum
    in
    let mirror = mirror_of twin in
    let refine (_ : Rect.t) id (cell : Flat.acc) =
      count ();
      let s = Dataset.slot ds id in
      let lo = Dataset.head_sq_dist ds ~stretch ?mirror s qs acc in
      Flat.dist_within ~stretch ?mirror ~lo ~hi:n spectra (s * n) qs 0 acc
        ~within:cell
    in
    Some (key, refine)

(* A NEAREST query prepared once: the query entry, the transformation
   and the node bound's query side. It depends on the index only
   through its series length and feature configuration, and is read
   only, so the shards of one data set share it across domains. *)
type nearest_query = {
  nlength : int;
  nconfig : Feature.config;
  q : Dataset.query;
  prepared : prepared;
  nq : nn_query;
}

let nearest_query t spec query =
  check_query_length t spec query;
  let q = Dataset.prepare_query query in
  let prepared = prepare t spec in
  let twin =
    twin_slack t spec ~query_norm:(spectrum_norm q.Dataset.qspectrum)
  in
  {
    nlength = Dataset.series_length t.dataset;
    nconfig = t.config;
    q;
    prepared;
    nq = nn_query t prepared q ~twin;
  }

let check_fits t r =
  if r.nlength <> Dataset.series_length t.dataset || r.nconfig <> t.config
  then invalid_arg "Kindex: nearest query prepared for another index"

(* The one NN traversal behind {!nearest} and {!nearest_checked}:
   best-first over the tree with per-feature geometric bounds on the
   nodes ([RKV95]), data entries keyed by the sketch bound when one is
   given, else by the head bound, and refined on the kernel as they
   surface. Under [bstate] every node expansion is checked and charged
   as a node access and every refinement (or warp distance) as one
   comparison; bounds charge nothing. [visits] counts node expansions
   when a budget or a profile asks for them; the profile node counts
   the entries keyed as its rows in and the refinements as its
   candidates. *)
let nearest_run ?bstate ?sketch_bound ?within ~pn ~visits t r ~k =
  let nq = r.nq and prepared = r.prepared and q = r.q in
  let twin = nq.twin in
  let visit =
    match (bstate, pn) with
    | None, None -> None
    | _ ->
      Some
        (fun () ->
          incr visits;
          Budget.node_access bstate)
  in
  let count () =
    Profile.add_candidates pn 1;
    Budget.comparisons bstate 1
  in
  let dist = prepared_distance t prepared q in
  let exact (_ : Rect.t) id (cell : Flat.acc) =
    count ();
    cell.Flat.sum <- dist id
  in
  let key, refine =
    match (nn_refinement t prepared q ~twin ~count, sketch_bound) with
    | None, None -> (exact, None)
    | None, Some bound -> (bound, Some exact)
    | Some (head, refine), None -> (head, Some refine)
    | Some (_, refine), Some bound -> (bound, Some refine)
  in
  let key r id cell =
    Profile.add_rows_in pn 1;
    key r id cell
  in
  Nn.best_first ?visit ?refine ?within t.tree ~node_bound:(node_bound t nq)
    ~key ~rank:Fun.id ~k
  |> List.map (fun (_, id, d) -> (id, d))

let nearest ?(spec = Spec.Identity) ?sketch ?profile t ~query ~k =
  Profile.with_op profile "kindex.nearest" @@ fun pn ->
  let r = nearest_query t spec query in
  let sketch_bound = nn_point_bound sketch r.q in
  Profile.set_detail pn (nn_detail ~k sketch_bound);
  let visits = ref 0 in
  let answers = nearest_run ?sketch_bound ~pn ~visits t r ~k in
  Profile.add_pages pn !visits;
  Profile.add_rows_out pn (List.length answers);
  answers

(* The degraded NN path: an exact linear selection over the prepared
   entries, priced as the admission cost model prices a scan — one
   comparison and one logical page read per series. Ties at the [k]
   boundary break on the entry id, so the selection is deterministic
   at every domain count. *)
let nearest_scan_counted ?bstate ?profile t ~dist ~k =
  Profile.with_op profile "kindex.nearest-scan" @@ fun pn ->
  (* Slot order: the spectra are read front to back. *)
  let scored =
    Array.init (Dataset.cardinality t.dataset) (fun s ->
        let id = Dataset.id_at t.dataset s in
        Budget.page_read bstate;
        Budget.comparisons bstate 1;
        (id, dist id))
  in
  Array.sort
    (fun (a, da) (b, db) ->
      match Float.compare da db with 0 -> Int.compare a b | c -> c)
    scored;
  let n = Int.min k (Array.length scored) in
  Profile.add_rows_in pn (Array.length scored);
  Profile.add_candidates pn (Array.length scored);
  Profile.add_rows_out pn n;
  Array.to_list (Array.sub scored 0 n)

let nearest_scan t r ~budget ~profile ~k =
  check_fits t r;
  if k <= 0 then invalid_arg "Kindex.nearest_scan: k must be positive";
  let dist = prepared_distance t r.prepared r.q in
  Retry.with_retries ?profile ~budget (fun bstate ->
      nearest_scan_counted ?bstate ?profile t ~dist ~k)

(* What admission control knows about an NN query before running it:
   catalogue metadata only, and the exact answer fraction k/N in place
   of a histogram estimate — producing it reads no page. *)
let nn_workload t ~k =
  let cardinality = Dataset.cardinality t.dataset in
  {
    Simq_admission.cardinality;
    pages = Simq_storage.Relation.pages (Dataset.relation t.dataset);
    tree_size = Rstar.size t.tree;
    tree_height = Rstar.height t.tree;
    selectivity = Float.min 1. (float_of_int k /. float_of_int cardinality);
    (* The checked NN path takes no sketch: the comparison estimate
       keeps its funnel-free form. *)
    sketch_levels = 0;
  }

type nearest_result = {
  neighbours : (int * float) list;
  admission : Simq_admission.decision option;
}

(* The body of {!nearest_checked} inside its [kindex.nearest] node,
   for a query prepared by [prepare] (inside the node, so the node's
   time covers the preparation when the query is prepared for it
   alone). *)
let nearest_attempts ?admission ~budget ?within ?profile ~pn t ~prepare ~k =
  let r = prepare () in
  Profile.set_detail pn (nn_detail ~k None);
  let visits = ref 0 in
  (* Admission runs once, before any attempt: the decision is a pure
     function of catalogue metadata, the budget and a registry
     snapshot, so it cannot flip between retries (or domain counts). *)
  let decision =
    match admission with
    | None -> None
    | Some policy ->
      let d =
        Simq_admission.decide policy (nn_workload t ~k)
          ~prefer:Simq_admission.Index_path ~budget
      in
      Profile.add_event pn ("admission: " ^ Simq_admission.decision_name d);
      Some d
  in
  let finish result =
    Profile.add_pages pn !visits;
    match result with
    | Ok neighbours ->
      Profile.add_rows_out pn (List.length neighbours);
      Ok { neighbours; admission = decision }
    | Error e ->
      Profile.add_event pn ("error: " ^ Simq_fault.Error.kind e);
      Error e
  in
  match decision with
  | Some (Simq_admission.Reject reject) ->
    (* Refused before execution: no node is visited, no page read, no
       comparison runs. *)
    finish (Error (Simq_admission.error_of_reject reject))
  | _ ->
    finish
      (Retry.with_retries ?profile ~budget (fun bstate ->
           match decision with
           | Some Simq_admission.Degrade_to_scan ->
             nearest_scan_counted ?bstate ?profile t
               ~dist:(prepared_distance t r.prepared r.q) ~k
           | _ -> nearest_run ?bstate ?within ~pn ~visits t r ~k))

let nearest_checked ?(spec = Spec.Identity) ?(budget = Budget.unlimited)
    ?admission ?within ?profile t ~query ~k =
  check_query_length t spec query;
  if k <= 0 then invalid_arg "Kindex.nearest_checked: k must be positive";
  Profile.with_op profile "kindex.nearest" @@ fun pn ->
  nearest_attempts ?admission ~budget ?within ?profile ~pn t
    ~prepare:(fun () -> nearest_query t spec query)
    ~k

let nearest_prepared t r ~budget ~within ~profile ~k =
  check_fits t r;
  if k <= 0 then invalid_arg "Kindex.nearest_checked: k must be positive";
  Profile.with_op profile "kindex.nearest" @@ fun pn ->
  nearest_attempts ~budget ~within ?profile ~pn t ~prepare:(fun () -> r) ~k
  |> Result.map (fun result -> result.neighbours)

(* The node bound of a whole box: what the traversal would key a node
   with that MBR under. *)
let nearest_bound t r =
  check_fits t r;
  let cell = Flat.acc () in
  fun box ->
    node_bound t r.nq box cell;
    cell.Flat.sum
