module Series = Simq_series.Series
module Normal_form = Simq_series.Normal_form
module Relation = Simq_storage.Relation
module Flat = Simq_dsp.Flat
module Region = Simq_geometry.Region

type entry = {
  id : int;
  name : string;
  series : Series.t;
  mean : float;
  std : float;
}

type query = { qnormal : Series.t; qspectrum : Flat.t }

type t = {
  entries : entry array;  (* by id *)
  spectra : Flat.t;  (* slot [s]'s spectrum from coefficient [s·n] *)
  head : Flat.t;
      (* slot [s]'s first [Flat.head_width] spectrum coefficients from
         coefficient [s·head_width] *)
  slots : int array;  (* id → slot *)
  ids : int array;  (* slot → id *)
  n : int;
  relation : Relation.t;
}

let head_width = Flat.head_width

(* Coefficients [0 .. min head_width n - 1] of slot [s]'s spectrum into
   its slot of [head]; the slot's zero padding beyond [n - 1] is never
   read by the kernel, whose ranges stop at [n]. *)
let fill_head t s =
  Array.blit t.spectra (2 * s * t.n) t.head (2 * head_width * s)
    (2 * Int.min head_width t.n)

let check_permutation name ~count order =
  if Array.length order <> count then
    invalid_arg (name ^ ": order length differs from the cardinality");
  let seen = Bytes.make count '\000' in
  Array.iter
    (fun id ->
      if id < 0 || id >= count || Bytes.get seen id <> '\000' then
        invalid_arg (name ^ ": order is not a permutation of the ids");
      Bytes.set seen id '\001')
    order

let normal e = Normal_form.standardise e.series ~mean:e.mean ~std:e.std

(* Normalises [series] and writes the spectrum of its normal form
   straight into coefficient [off] of [spectra]: every
   frequency-domain distance reads it there through the one kernel
   ({!Simq_dsp.Flat}). The normal form itself is not kept. *)
let prepare ~id ~name series spectra ~off =
  let d = Normal_form.decompose series in
  Simq_dsp.Fft.fft_real_into d.Normal_form.normalised spectra ~off;
  { id; name; series; mean = d.Normal_form.mean; std = d.Normal_form.std }

let of_relation ?pool r =
  if Relation.cardinality r = 0 then
    invalid_arg "Dataset.of_relation: empty relation";
  let tuples = Relation.to_array r in
  let n = Series.length tuples.(0).Relation.data in
  let count = Array.length tuples in
  let spectra = Flat.create (n * count) in
  (* Per-entry normalisation + FFT dominates the build cost and is pure
     but for its own disjoint slot of [spectra] (slot = id at first), so
     the tuples fan out over the pool; [map_array] keeps positions and
     surfaces the lowest-index length error, like the left-to-right
     sequential map did. *)
  let entries =
    Simq_parallel.Pool.map_array ?pool
      (fun (tuple : Relation.tuple) ->
        if Series.length tuple.Relation.data <> n then
          invalid_arg "Dataset.of_relation: series of unequal lengths";
        let id = tuple.Relation.id in
        prepare ~id ~name:tuple.Relation.name tuple.Relation.data spectra
          ~off:(id * n))
      tuples
  in
  let t =
    {
      entries;
      spectra;
      head = Array.make (2 * head_width * count) 0.;
      slots = Array.init count Fun.id;
      ids = Array.init count Fun.id;
      n;
      relation = r;
    }
  in
  for s = 0 to count - 1 do
    fill_head t s
  done;
  t

let of_series ?pool ~name batch =
  of_relation ?pool (Relation.of_series ~name batch)

(* The entries of {!prepare} without its FFT: the spectra arrive in
   slot order, and the moments are the stored ones. *)
let of_prepared r ~means ~stds ~ids spectra =
  let bad why = invalid_arg ("Dataset.of_prepared: " ^ why) in
  let tuples = Relation.to_array r in
  let count = Array.length tuples in
  if count = 0 then bad "empty relation";
  let n = Series.length tuples.(0).Relation.data in
  if Array.length means <> count || Array.length stds <> count then
    bad "one mean and one std per tuple";
  if Array.length spectra <> 2 * n * count then
    bad "spectra of another size";
  check_permutation "Dataset.of_prepared" ~count ids;
  let entries =
    Array.map
      (fun (tuple : Relation.tuple) ->
        let series = tuple.Relation.data and id = tuple.Relation.id in
        if Series.length series <> n then bad "series of unequal lengths";
        {
          id;
          name = tuple.Relation.name;
          series;
          mean = means.(id);
          std = stds.(id);
        })
      tuples
  in
  let slots = Array.make count 0 in
  Array.iteri (fun s id -> slots.(id) <- s) ids;
  let t =
    {
      entries;
      spectra;
      head = Array.make (2 * head_width * count) 0.;
      slots;
      ids = Array.copy ids;
      n;
      relation = r;
    }
  in
  for s = 0 to count - 1 do
    fill_head t s
  done;
  t

let cardinality t = Array.length t.entries

(* Nothing is normalised or transformed again: the entries keep the
   parent's [series] arrays, and each row is copied from
   the parent's slot into the block's own buffer in id order, ready
   for the block's own {!lay_out}. *)
let sub t ~name ~lo ~width =
  if lo < 0 || width < 1 || lo > cardinality t - width then
    invalid_arg "Dataset.sub: block outside the ids";
  let relation =
    Relation.of_series ~name
      (Array.init width (fun i -> t.entries.(lo + i).series))
  in
  let tuples = Relation.to_array relation in
  let row = 2 * t.n and hrow = 2 * head_width in
  let spectra = Flat.create (t.n * width)
  and head = Array.make (hrow * width) 0. in
  let entries =
    Array.init width (fun i ->
        let s = t.slots.(lo + i) in
        Array.blit t.spectra (s * row) spectra (i * row) row;
        Array.blit t.head (s * hrow) head (i * hrow) hrow;
        { (t.entries.(lo + i)) with id = i; name = tuples.(i).Relation.name })
  in
  {
    entries;
    spectra;
    head;
    slots = Array.init width Fun.id;
    ids = Array.init width Fun.id;
    n = t.n;
    relation;
  }

(* In place, cycle by cycle: slot [s] takes the spectrum and head of
   the entry [order.(s)], each row moving once through a one-row
   buffer, so no second copy of the spectra ever exists. *)
let lay_out t order =
  let count = cardinality t in
  check_permutation "Dataset.lay_out" ~count order;
  let row = 2 * t.n and hrow = 2 * head_width in
  (* [from.(s)]: the slot holding what slot [s] must hold. *)
  let from = Array.map (fun id -> t.slots.(id)) order in
  let spare = Flat.create t.n and hspare = Flat.create head_width in
  let seen = Bytes.make count '\000' in
  for start = 0 to count - 1 do
    if Bytes.get seen start = '\000' && from.(start) <> start then begin
      Array.blit t.spectra (start * row) spare 0 row;
      Array.blit t.head (start * hrow) hspare 0 hrow;
      let s = ref start in
      while from.(!s) <> start do
        let src = from.(!s) in
        Array.blit t.spectra (src * row) t.spectra (!s * row) row;
        Array.blit t.head (src * hrow) t.head (!s * hrow) hrow;
        Bytes.set seen !s '\001';
        s := src
      done;
      Array.blit spare 0 t.spectra (!s * row) row;
      Array.blit hspare 0 t.head (!s * hrow) hrow;
      Bytes.set seen !s '\001'
    end
  done;
  Array.iteri
    (fun s id ->
      t.ids.(s) <- id;
      t.slots.(id) <- s)
    order

let prepare_query ?(normalise = true) q =
  let q = Series.validate q in
  let qnormal = if normalise then Normal_form.normalise q else q in
  { qnormal; qspectrum = Simq_dsp.Fft.fft_real_flat qnormal }

(* GK95-style side constraints always refer to the raw query, which is
   decomposed only when a constraint asks for it. The messages are the
   range entry points' own, whichever executes the constraint. *)
let side_ranges ?mean_window ?std_band query =
  let decomposition = lazy (Normal_form.decompose query) in
  let mean_range =
    Option.map
      (fun w ->
        if w < 0. then invalid_arg "Kindex.range: negative mean_window";
        let m = (Lazy.force decomposition).Normal_form.mean in
        Region.linear ~lo:(m -. w) ~hi:(m +. w))
      mean_window
  in
  let std_range =
    Option.map
      (fun f ->
        if f < 1. then invalid_arg "Kindex.range: std_band must be >= 1";
        let s = (Lazy.force decomposition).Normal_form.std in
        Region.linear ~lo:(s /. f) ~hi:(s *. f))
      std_band
  in
  (mean_range, std_range)

let within_sides (mean_range, std_range) entry =
  let within v = function
    | None -> true
    | Some range -> Region.contains_value range v
  in
  within entry.mean mean_range && within entry.std std_range

let entries t = Array.copy t.entries

let get t id =
  if id < 0 || id >= cardinality t then invalid_arg "Dataset.get: unknown id";
  t.entries.(id)

let spectra t = t.spectra
let heads t = t.head

let slot t id =
  if id < 0 || id >= cardinality t then invalid_arg "Dataset.slot: unknown id";
  t.slots.(id)

let id_at t s =
  if s < 0 || s >= cardinality t then invalid_arg "Dataset.id_at: unknown slot";
  t.ids.(s)

let spectrum t id =
  Array.sub t.spectra (2 * slot t id * t.n) (2 * t.n)

(* Coefficient 0 first, recorded when asked, then the rest: the same
   sum as one call over the head. *)
let head_sq_dist t ~stretch ?mirror s qs acc =
  if s < 0 || s >= cardinality t then
    invalid_arg "Dataset.head_sq_dist: unknown slot";
  let hi = Int.min head_width t.n and at = head_width * s in
  acc.Flat.sum <- 0.;
  match mirror with
  | None -> Flat.sq_dist ~stretch ~limit:infinity ~lo:0 ~hi t.head at qs 0 acc
  | Some (m : Flat.mirror) ->
    let first =
      Flat.sq_dist ~stretch ~limit:infinity ~lo:0 ~hi:(Int.min 1 hi) t.head at
        qs 0 acc
    in
    m.Flat.t0 <- acc.Flat.sum;
    first
    + Flat.sq_dist ~stretch ~limit:infinity ~lo:first ~hi t.head at qs 0 acc

(* Coefficients 1 .. h-1 first, doubled, then coefficient 0 added. *)
let head_twin_sq_dist t ~stretch s qs acc =
  if s < 0 || s >= cardinality t then
    invalid_arg "Dataset.head_twin_sq_dist: unknown slot";
  let hi = Int.min head_width t.n and at = head_width * s in
  acc.Flat.sum <- 0.;
  ignore (Flat.sq_dist ~stretch ~limit:infinity ~lo:1 ~hi t.head at qs 0 acc);
  acc.Flat.sum <- 2. *. acc.Flat.sum;
  ignore (Flat.sq_dist ~stretch ~limit:infinity ~lo:0 ~hi:1 t.head at qs 0 acc)

let series_length t = t.n
let relation t = t.relation
