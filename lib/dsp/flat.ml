type t = float array

let create n = Array.create_float (2 * n)

let of_cpx zs =
  let x = create (Array.length zs) in
  Array.iteri
    (fun f (z : Cpx.t) ->
      x.(2 * f) <- z.Complex.re;
      x.((2 * f) + 1) <- z.Complex.im)
    zs;
  x

let length x = Array.length x / 2
let coeff x f = { Complex.re = x.(2 * f); im = x.((2 * f) + 1) }
let sub x ~pos ~len = Array.init len (fun i -> coeff x (pos + i))
let to_cpx x = sub x ~pos:0 ~len:(length x)

let stretch_into ~stretch x dst ~off =
  if Array.length stretch <> Array.length x || off < 0
     || (2 * off) + Array.length x > Array.length dst
  then invalid_arg "Flat.stretch_into: length mismatch";
  for f = 0 to length x - 1 do
    let sr = stretch.(2 * f) and si = stretch.((2 * f) + 1) in
    let xr = x.(2 * f) and xi = x.((2 * f) + 1) in
    dst.(2 * (off + f)) <- (sr *. xr) -. (si *. xi);
    dst.((2 * (off + f)) + 1) <- (sr *. xi) +. (si *. xr)
  done

type acc = { mutable sum : float }

let acc () = { sum = 0. }

(* The bounds are checked once up front, so the loops read unchecked;
   [sum] is a local float ref the compiler keeps unboxed, stored back
   into the all-float [acc] record once at the end. *)
let sq_dist ~stretch ~limit ~lo ~hi x xo y yo acc =
  if lo < 0 || hi < lo || xo < 0 || yo < 0
     || 2 * (xo + hi) > Array.length x
     || 2 * (yo + hi) > Array.length y
  then invalid_arg "Flat.sq_dist: range out of bounds";
  let xo = 2 * xo and yo = 2 * yo in
  let sum = ref acc.sum in
  let f = ref lo and stop = ref hi in
  (match stretch with
  | None ->
    while !f < !stop do
      let i = 2 * !f in
      let dr = Array.unsafe_get x (xo + i) -. Array.unsafe_get y (yo + i) in
      let di =
        Array.unsafe_get x (xo + i + 1) -. Array.unsafe_get y (yo + i + 1)
      in
      sum := !sum +. ((dr *. dr) +. (di *. di));
      incr f;
      if !sum > limit then stop := !f
    done
  | Some s ->
    if 2 * hi > Array.length s then
      invalid_arg "Flat.sq_dist: stretch too short";
    while !f < !stop do
      let i = 2 * !f in
      let sr = Array.unsafe_get s i and si = Array.unsafe_get s (i + 1) in
      let xr = Array.unsafe_get x (xo + i)
      and xi = Array.unsafe_get x (xo + i + 1) in
      let dr = ((sr *. xr) -. (si *. xi)) -. Array.unsafe_get y (yo + i) in
      let di = ((sr *. xi) +. (si *. xr)) -. Array.unsafe_get y (yo + i + 1) in
      sum := !sum +. ((dr *. dr) +. (di *. di));
      incr f;
      if !sum > limit then stop := !f
    done);
  acc.sum <- !sum;
  !f - lo
