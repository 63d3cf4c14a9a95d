module Cpx = Simq_dsp.Cpx

type representation = Rectangular | Polar

let encode rep x =
  let k = Array.length x in
  let p = Array.make (2 * k) 0. in
  for i = 0 to k - 1 do
    match rep with
    | Rectangular ->
      p.(2 * i) <- Cpx.re x.(i);
      p.((2 * i) + 1) <- Cpx.im x.(i)
    | Polar ->
      p.(2 * i) <- Cpx.abs x.(i);
      p.((2 * i) + 1) <- Cpx.angle x.(i)
  done;
  p

let decode rep p =
  let d = Array.length p in
  if d mod 2 <> 0 then invalid_arg "Coords.decode: odd dimension count";
  Array.init (d / 2) (fun i ->
      match rep with
      | Rectangular -> Cpx.make p.(2 * i) p.((2 * i) + 1)
      | Polar -> Cpx.polar p.(2 * i) p.((2 * i) + 1))

let search_region rep ~query ~epsilon =
  if epsilon < 0. then invalid_arg "Coords.search_region: negative epsilon";
  let k = Array.length query in
  let region = Array.make (2 * k) Region.full_circle in
  for i = 0 to k - 1 do
    match rep with
    | Rectangular ->
      let re = Cpx.re query.(i) and im = Cpx.im query.(i) in
      region.(2 * i) <- Region.linear ~lo:(re -. epsilon) ~hi:(re +. epsilon);
      region.((2 * i) + 1) <-
        Region.linear ~lo:(im -. epsilon) ~hi:(im +. epsilon)
    | Polar ->
      let m = Cpx.abs query.(i) and alpha = Cpx.angle query.(i) in
      region.(2 * i) <-
        Region.linear ~lo:(Float.max 0. (m -. epsilon)) ~hi:(m +. epsilon);
      region.((2 * i) + 1) <-
        (if epsilon >= m then Region.full_circle
         else begin
           let delta = asin (epsilon /. m) in
           Region.circular ~lo:(alpha -. delta) ~hi:(alpha +. delta)
         end)
  done;
  region
