module Coords = Simq_geometry.Coords

type config = {
  k : int;
  representation : Coords.representation;
}

let default = { k = 2; representation = Coords.Polar }

let validate config ~n =
  if config.k < 1 then invalid_arg "Feature.validate: k must be >= 1";
  if config.k >= n then
    invalid_arg "Feature.validate: k must be smaller than the series length"

let dims config = 2 + (2 * config.k)

let coefficients config dataset id =
  let off = Dataset.slot dataset id * Dataset.series_length dataset in
  Simq_dsp.Flat.sub (Dataset.spectra dataset) ~pos:(off + 1) ~len:config.k

(* Feature dimensions first, mean/std last: the bulk loader tiles along
   the leading dimensions, and queries constrain the DFT features while
   leaving mean/std free, so the discriminating dimensions must lead. *)
let point config dataset id =
  let encoded =
    Coords.encode config.representation (coefficients config dataset id)
  in
  Array.append encoded [| Dataset.mean dataset id; Dataset.std dataset id |]
