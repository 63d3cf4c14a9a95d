type decomposition = {
  normalised : Series.t;
  mean : float;
  std : float;
}

let standardise_into s ~mean ~std out =
  let n = Array.length s in
  if Array.length out <> n then
    invalid_arg "Normal_form.standardise_into: length mismatch";
  if std = 0. then Array.fill out 0 n 0.
  else
    for t = 0 to n - 1 do
      out.(t) <- (s.(t) -. mean) /. std
    done

let standardise s ~mean ~std =
  let out = Array.create_float (Array.length s) in
  standardise_into s ~mean ~std out;
  out

let decompose (s : Series.t) =
  let mean = Stats.mean s in
  let std = sqrt (Stats.variance_about s ~mean) in
  { normalised = standardise s ~mean ~std; mean; std }

let normalise s = (decompose s).normalised

let is_normal ?(eps = 1e-6) s =
  let m = Stats.mean s and sd = Stats.std s in
  Float.abs m <= eps && (sd = 0. || Float.abs (sd -. 1.) <= eps)
