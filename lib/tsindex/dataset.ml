module Series = Simq_series.Series
module Normal_form = Simq_series.Normal_form
module Relation = Simq_storage.Relation
module Flat = Simq_dsp.Flat
module Region = Simq_geometry.Region

type entry = {
  id : int;
  name : string;
  series : Series.t;
  normal : Series.t;
  spectrum : Flat.t;
  mean : float;
  std : float;
}

type t = {
  mutable entries : entry array;  (* amortised growable; [count] live *)
  mutable head : Flat.t;
      (* entry [id]'s first [Flat.head_width] spectrum coefficients from
         coefficient [id·head_width]; grows with [entries] *)
  mutable count : int;
  n : int;
  relation : Relation.t;
}

let head_width = Flat.head_width

(* Coefficients [0 .. min head_width n - 1] of [entry]'s spectrum into
   its slot of [head]; the slot's zero padding beyond [n - 1] is never
   read by the kernel, whose ranges stop at [n]. *)
let fill_head head (entry : entry) =
  let len = 2 * Int.min head_width (Flat.length entry.spectrum) in
  Array.blit entry.spectrum 0 head (2 * head_width * entry.id) len

let prepare ~id ~name series =
  let d = Normal_form.decompose series in
  {
    id;
    name;
    series;
    normal = d.Normal_form.normalised;
    (* Filled once; every frequency-domain distance reads it through
       the one kernel ({!Simq_dsp.Flat}). *)
    spectrum = Simq_dsp.Fft.fft_real_flat d.Normal_form.normalised;
    mean = d.Normal_form.mean;
    std = d.Normal_form.std;
  }

let of_relation ?pool r =
  if Relation.cardinality r = 0 then
    invalid_arg "Dataset.of_relation: empty relation";
  let tuples = Relation.to_array r in
  let n = Series.length tuples.(0).Relation.data in
  (* Per-entry normalisation + FFT dominates the build cost and is pure,
     so the tuples fan out over the pool; [map_array] keeps positions
     and surfaces the lowest-index length error, like the
     left-to-right sequential map did. *)
  let entries =
    Simq_parallel.Pool.map_array ?pool
      (fun (tuple : Relation.tuple) ->
        if Series.length tuple.Relation.data <> n then
          invalid_arg "Dataset.of_relation: series of unequal lengths";
        prepare ~id:tuple.Relation.id ~name:tuple.Relation.name
          tuple.Relation.data)
      tuples
  in
  let count = Array.length entries in
  let head = Array.make (2 * head_width * count) 0. in
  Array.iter (fill_head head) entries;
  { entries; head; count; n; relation = r }

let of_series ?pool ~name batch =
  of_relation ?pool (Relation.of_series ~name batch)

let insert t ~name data =
  let data = Series.validate data in
  if Series.length data <> t.n then
    invalid_arg "Dataset.insert: series length mismatch";
  let tuple = Relation.insert t.relation ~name data in
  let entry = prepare ~id:tuple.Relation.id ~name data in
  let capacity = Array.length t.entries in
  if t.count = capacity then begin
    let fresh = Array.make (max 16 (2 * capacity)) entry in
    Array.blit t.entries 0 fresh 0 capacity;
    t.entries <- fresh;
    let head = Array.make (2 * head_width * Array.length fresh) 0. in
    Array.blit t.head 0 head 0 (Array.length t.head);
    t.head <- head
  end;
  fill_head t.head entry;
  t.entries.(t.count) <- entry;
  t.count <- t.count + 1;
  entry

let prepare_query ?(normalise = true) q =
  let q = Series.validate q in
  if normalise then prepare ~id:(-1) ~name:"query" q
  else
    {
      id = -1;
      name = "query";
      series = q;
      normal = q;
      spectrum = Simq_dsp.Fft.fft_real_flat q;
      mean = 0.;
      std = 1.;
    }

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

let entries t = Array.sub t.entries 0 t.count

let get t id =
  if id < 0 || id >= t.count then invalid_arg "Dataset.get: unknown id";
  t.entries.(id)

let head_sq_dist t ~stretch id qs acc =
  if id < 0 || id >= t.count then
    invalid_arg "Dataset.head_sq_dist: unknown id";
  acc.Flat.sum <- 0.;
  Flat.sq_dist ~stretch ~limit:infinity ~lo:0 ~hi:(Int.min head_width t.n)
    t.head (head_width * id) qs 0 acc

let cardinality t = t.count
let series_length t = t.n
let relation t = t.relation
