module Series = Simq_series.Series
module Normal_form = Simq_series.Normal_form
module Relation = Simq_storage.Relation
module Flat = Simq_dsp.Flat
module Region = Simq_geometry.Region
module A = Bigarray.Array1

type entry = {
  id : int;
  name : string;
  series : Series.t;
  mean : float;
  std : float;
}

type query = { qnormal : Series.t; qspectrum : Flat.t }

type floats = Simq_storage.Words.buffer

type t = {
  relation : Relation.t;  (* the series and their names *)
  means : floats;  (* by id *)
  stds : floats;  (* by id *)
  spectra : Flat.t;  (* slot [s]'s spectrum from coefficient [s·n] *)
  head : Flat.t;
      (* slot [s]'s first [Flat.head_width] spectrum coefficients from
         coefficient [s·head_width] *)
  slots : int array;  (* id → slot *)
  ids : int array;  (* slot → id *)
  n : int;
}

let head_width = Flat.head_width
let floats len = A.create Bigarray.float64 Bigarray.c_layout len
let cardinality t = Array.length t.ids

(* Coefficients [0 .. min head_width n - 1] of slot [s]'s spectrum into
   its slot of [head]; the slot's zero padding beyond [n - 1] is never
   read by the kernel, whose ranges stop at [n]. *)
let fill_head t s =
  Flat.blit t.spectra ~pos:(s * t.n) t.head ~off:(head_width * s)
    ~len:(Int.min head_width t.n)

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

let check_id name t id =
  if id < 0 || id >= cardinality t then invalid_arg (name ^ ": unknown id")

let series_into t id out =
  check_id "Dataset.series_into" t id;
  Relation.series_into t.relation id out

let series t id =
  check_id "Dataset.series" t id;
  Relation.series t.relation id

let name t id =
  check_id "Dataset.name" t id;
  Relation.series_name t.relation id

let mean t id =
  check_id "Dataset.mean" t id;
  A.get t.means id

let std t id =
  check_id "Dataset.std" t id;
  A.get t.stds id

let get t id =
  check_id "Dataset.get" t id;
  {
    id;
    name = Relation.series_name t.relation id;
    series = Relation.series t.relation id;
    mean = A.get t.means id;
    std = A.get t.stds id;
  }

(* The formula [decompose] applies, on a copy of the row, in place. *)
let normal t id =
  let s = series t id in
  Normal_form.standardise_into s ~mean:(A.get t.means id) ~std:(A.get t.stds id)
    s;
  s

(* The common length of a relation's series, or the refusal. *)
let length_of name r =
  if Relation.cardinality r = 0 then invalid_arg (name ^ ": empty relation");
  match Relation.length r with
  | Some n -> n
  | None -> invalid_arg (name ^ ": series of unequal lengths")

let of_relation ?pool r =
  let n = length_of "Dataset.of_relation" r in
  let count = Relation.cardinality r in
  let spectra = Flat.create (n * count)
  and means = floats count
  and stds = floats count in
  (* Per-entry normalisation + FFT dominates the build cost and is pure
     but for its own disjoint slot of [spectra] and of the moments
     (slot = id at first), so the ids fan out over the pool. The
     spectrum of each normal form is written straight into its slot,
     where every frequency-domain distance reads it through the one
     kernel ({!Simq_dsp.Flat}); the normal form itself is not kept. *)
  ignore
    (Simq_parallel.Pool.map_array ?pool
       (fun id ->
         let d = Normal_form.decompose (Relation.series r id) in
         Simq_dsp.Fft.fft_real_into d.Normal_form.normalised spectra
           ~off:(id * n);
         A.unsafe_set means id d.Normal_form.mean;
         A.unsafe_set stds id d.Normal_form.std)
       (Array.init count Fun.id)
      : unit array);
  let t =
    {
      relation = r;
      means;
      stds;
      spectra;
      head = Flat.zeros (head_width * count);
      slots = Array.init count Fun.id;
      ids = Array.init count Fun.id;
      n;
    }
  in
  for s = 0 to count - 1 do
    fill_head t s
  done;
  t

let of_series ?pool ~name batch =
  of_relation ?pool (Relation.of_series ~name batch)

(* Every buffer is adopted as it is: no FFT, no normalisation, no
   copy; only the slot order is checked and inverted. *)
let of_prepared r ~means ~stds ~ids ~heads spectra =
  let bad why = invalid_arg ("Dataset.of_prepared: " ^ why) in
  let n = length_of "Dataset.of_prepared" r in
  let count = Relation.cardinality r in
  if A.dim means <> count || A.dim stds <> count then
    bad "one mean and one std per tuple";
  if Flat.length spectra <> n * count then bad "spectra of another size";
  if Flat.length heads <> head_width * count then
    bad "a head table of another size";
  check_permutation "Dataset.of_prepared" ~count ids;
  let slots = Array.make count 0 in
  Array.iteri (fun s id -> slots.(id) <- s) ids;
  {
    relation = r;
    means;
    stds;
    spectra;
    head = heads;
    slots;
    ids = Array.copy ids;
    n;
  }

(* Nothing is normalised or transformed again: the block's relation and
   moments are views of the parent's for the id range, and each row is
   copied from the parent's slot into the block's own buffer in id
   order, ready for the block's own {!lay_out}. *)
let sub t ~name ~lo ~width =
  if lo < 0 || width < 1 || lo > cardinality t - width then
    invalid_arg "Dataset.sub: block outside the ids";
  let n = t.n in
  let spectra = Flat.create (n * width) and head = Flat.zeros (head_width * width) in
  for i = 0 to width - 1 do
    let s = t.slots.(lo + i) in
    Flat.blit t.spectra ~pos:(s * n) spectra ~off:(i * n) ~len:n;
    Flat.blit t.head ~pos:(s * head_width) head ~off:(i * head_width)
      ~len:head_width
  done;
  {
    relation = Relation.sub t.relation ~name ~lo ~width;
    means = A.sub t.means lo width;
    stds = A.sub t.stds lo width;
    spectra;
    head;
    slots = Array.init width Fun.id;
    ids = Array.init width Fun.id;
    n;
  }

(* In place, cycle by cycle: slot [s] takes the spectrum and head of
   the entry [order.(s)], each row moving once through a one-row
   buffer, so no second copy of the spectra ever exists. *)
let lay_out t order =
  let count = cardinality t in
  check_permutation "Dataset.lay_out" ~count order;
  let n = t.n and h = head_width in
  let move src s dst d =
    Flat.blit src ~pos:(s * n) dst ~off:(d * n) ~len:n
  and move_head src s dst d =
    Flat.blit src ~pos:(s * h) dst ~off:(d * h) ~len:h
  in
  (* [from.(s)]: the slot holding what slot [s] must hold. *)
  let from = Array.map (fun id -> t.slots.(id)) order in
  let spare = Flat.create n and hspare = Flat.create h in
  let seen = Bytes.make count '\000' in
  for start = 0 to count - 1 do
    if Bytes.get seen start = '\000' && from.(start) <> start then begin
      move t.spectra start spare 0;
      move_head t.head start hspare 0;
      let s = ref start in
      while from.(!s) <> start do
        let src = from.(!s) in
        move t.spectra src t.spectra !s;
        move_head t.head src t.head !s;
        Bytes.set seen !s '\001';
        s := src
      done;
      move spare 0 t.spectra !s;
      move_head hspare 0 t.head !s;
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

let within_sides (mean_range, std_range) t id =
  let within v = function
    | None -> true
    | Some range -> Region.contains_value range v
  in
  within (A.get t.means id) mean_range && within (A.get t.stds id) std_range

let entries t = Array.init (cardinality t) (get t)
let spectra t = t.spectra
let heads t = t.head
let means t = t.means
let stds t = t.stds

let slot t id =
  if id < 0 || id >= cardinality t then invalid_arg "Dataset.slot: unknown id";
  t.slots.(id)

let id_at t s =
  if s < 0 || s >= cardinality t then invalid_arg "Dataset.id_at: unknown slot";
  t.ids.(s)

let spectrum t id =
  let x = Flat.create t.n in
  Flat.blit t.spectra ~pos:(slot t id * t.n) x ~off:0 ~len:t.n;
  x

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
