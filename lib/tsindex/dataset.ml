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
  spectra : Flat.t;  (* slot [s]'s weighted half from coefficient [s·width] *)
  head : Flat.t;
      (* slot [s]'s first [Flat.head_width] spectrum coefficients from
         coefficient [s·head_width] *)
  slots : int array;  (* id → slot *)
  ids : int array;  (* slot → id *)
  n : int;
  width : int;  (* coefficients per row, [Fft.half n] *)
}

let head_width = Flat.head_width
let floats len = A.create Bigarray.float64 Bigarray.c_layout len
let cardinality t = Array.length t.ids

(* Coefficients [0 .. min head_width width - 1] of slot [s]'s spectrum
   into its slot of [head]; the slot's zero padding beyond them adds
   [0.] to any sum that reads it. *)
let fill_head t s =
  Flat.blit t.spectra ~pos:(s * t.width) t.head ~off:(head_width * s)
    ~len:(Int.min head_width t.width)

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
  Relation.length r

let of_relation ?pool r =
  let n = length_of "Dataset.of_relation" r in
  let count = Relation.cardinality r and width = Simq_dsp.Fft.half n in
  let spectra = Flat.create (width * count)
  and means = floats count
  and stds = floats count in
  (* Per-entry normalisation + FFT dominates the build cost and is pure
     but for its own disjoint slot of [spectra] and of the moments
     (slot = id at first), so the ids fan out over the pool in chunks,
     each transforming through one scratch row of its own. The weighted
     half of each normal form's spectrum is written straight into its
     slot, where every frequency-domain distance reads it through the
     one kernel ({!Simq_dsp.Flat}); the normal form itself is not
     kept. *)
  let module Pool = Simq_parallel.Pool in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  ignore
    (Pool.map_chunks ~pool ~chunk:(Pool.chunk_size pool count) ~n:count
       (fun ~lo ~hi ->
         let scratch = Flat.create n in
         for id = lo to hi - 1 do
           let d = Normal_form.decompose (Relation.series r id) in
           Simq_dsp.Fft.weighted_half_into ~scratch d.Normal_form.normalised
             spectra ~off:(id * width);
           A.unsafe_set means id d.Normal_form.mean;
           A.unsafe_set stds id d.Normal_form.std
         done)
      : unit list);
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
      width;
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
  let count = Relation.cardinality r and width = Simq_dsp.Fft.half n in
  if A.dim means <> count || A.dim stds <> count then
    bad "one mean and one std per tuple";
  if Flat.length spectra <> width * count then bad "spectra of another size";
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
    width;
  }

(* Nothing is normalised or transformed again: the block's relation and
   moments are views of the parent's for the id range, and each row is
   copied from the parent's slot into the block's own buffer in id
   order, ready for the block's own {!lay_out}. *)
let sub t ~name ~lo ~width =
  if lo < 0 || width < 1 || lo > cardinality t - width then
    invalid_arg "Dataset.sub: block outside the ids";
  let w = t.width in
  let spectra = Flat.create (w * width) and head = Flat.zeros (head_width * width) in
  for i = 0 to width - 1 do
    let s = t.slots.(lo + i) in
    Flat.blit t.spectra ~pos:(s * w) spectra ~off:(i * w) ~len:w;
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
    n = t.n;
    width = w;
  }

(* In place, cycle by cycle: slot [s] takes the spectrum and head of
   the entry [order.(s)], each row moving once through a one-row
   buffer, so no second copy of the spectra ever exists. *)
let lay_out t order =
  let count = cardinality t in
  check_permutation "Dataset.lay_out" ~count order;
  let w = t.width and h = head_width in
  let move src s dst d =
    Flat.blit src ~pos:(s * w) dst ~off:(d * w) ~len:w
  and move_head src s dst d =
    Flat.blit src ~pos:(s * h) dst ~off:(d * h) ~len:h
  in
  (* [from.(s)]: the slot holding what slot [s] must hold. *)
  let from = Array.map (fun id -> t.slots.(id)) order in
  let spare = Flat.create w and hspare = Flat.create h in
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
  (* Transformed in one buffer of [n] coefficients and weighted in
     place; the query holds a view of its first [width]. *)
  let n = Array.length qnormal in
  let buf = Flat.create n in
  Simq_dsp.Fft.weighted_half_into ~scratch:buf qnormal buf ~off:0;
  { qnormal; qspectrum = A.sub buf 0 (2 * Simq_dsp.Fft.half n) }

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
  let x = Flat.create t.width in
  Flat.blit t.spectra ~pos:(slot t id * t.width) x ~off:0 ~len:t.width;
  x

let head_sq_dist t ~stretch s qs acc =
  if s < 0 || s >= cardinality t then
    invalid_arg "Dataset.head_sq_dist: unknown slot";
  acc.Flat.sum <- 0.;
  Flat.sq_dist ~stretch ~limit:infinity ~lo:0
    ~hi:(Int.min head_width t.width) t.head (head_width * s) qs 0 acc

let series_length t = t.n
let width t = t.width
let relation t = t.relation
