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

(* Coefficients [0 .. len-1] of [stretch · x] into [dst] from
   coefficient [off], with [Complex.mul]'s formula. *)
let stretch_prefix ~stretch x ~len dst ~off =
  for f = 0 to len - 1 do
    let sr = stretch.(2 * f) and si = stretch.((2 * f) + 1) in
    let xr = x.(2 * f) and xi = x.((2 * f) + 1) in
    dst.(2 * (off + f)) <- (sr *. xr) -. (si *. xi);
    dst.((2 * (off + f)) + 1) <- (sr *. xi) +. (si *. xr)
  done

let stretch_into ~stretch x dst ~off =
  if Array.length stretch <> Array.length x || off < 0
     || (2 * off) + Array.length x > Array.length dst
  then invalid_arg "Flat.stretch_into: length mismatch";
  stretch_prefix ~stretch x ~len:(length x) dst ~off

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

let dist_within ~stretch ~within ~lo ~hi x xo y yo acc =
  let limit = within *. within in
  let touched = sq_dist ~stretch ~limit ~lo ~hi x xo y yo acc in
  (* Past the limit by rounding alone: complete the sum. *)
  if acc.sum > limit && not (sqrt acc.sum > within) then
    ignore
      (sq_dist ~stretch ~limit:infinity ~lo:(lo + touched) ~hi x xo y yo acc);
  sqrt acc.sum

(* One 64-byte cache line of coefficients per entry (see the .mli);
   {!within_row} walks exactly these four, unrolled. *)
let head_width = 4

type rows = {
  stretch : t;
  spectra : t array;  (* a private copy: its lengths were checked *)
  n : int;
  head : t;  (* entry [j]'s stretched head from coefficient [j·head_width] *)
}

let rows ~stretch spectra =
  let n = length stretch in
  Array.iter
    (fun x ->
      if Array.length x <> Array.length stretch then
        invalid_arg "Flat.rows: spectrum length differs from the stretch")
    spectra;
  (* Zero past coefficient [n - 1]: such a coefficient adds [0.] to the
     sum, which leaves it and every abandon test unchanged. *)
  let head = Array.make (2 * head_width * Array.length spectra) 0. in
  Array.iteri
    (fun j x ->
      stretch_prefix ~stretch x ~len:(min head_width n) head
        ~off:(j * head_width))
    spectra;
  { stretch; spectra = Array.copy spectra; n; head }

(* Every length was checked when [r] was built and [i], [j0] and [hits]
   are checked here, so the loops read unchecked. The per-pair
   arithmetic is {!sq_dist}'s over two pre-stretched spectra: the head
   is stored stretched, and the tail stretches both sides with the same
   [Complex.mul] formula {!stretch_into} uses, so every difference, sum
   and abandon test sees the same doubles. The four head coefficients
   are unrolled: a loop over them costs more than their arithmetic. *)
let within_row r ~limit ~threshold ~i ~j0 hits =
  let count = Array.length r.spectra in
  if i < 0 || i >= count || j0 < 0 || j0 > count
     || Array.length hits < count - j0
  then invalid_arg "Flat.within_row: row out of bounds";
  let s = r.stretch and head = r.head and spectra = r.spectra and n = r.n in
  let x = Array.unsafe_get spectra i in
  let xo = 2 * head_width * i in
  let found = ref 0 in
  for j = j0 to count - 1 do
    let yo = 2 * head_width * j in
    let sum = ref 0. in
    let dr = Array.unsafe_get head xo -. Array.unsafe_get head yo
    and di = Array.unsafe_get head (xo + 1) -. Array.unsafe_get head (yo + 1) in
    sum := !sum +. ((dr *. dr) +. (di *. di));
    if not (!sum > limit) then begin
      let dr = Array.unsafe_get head (xo + 2) -. Array.unsafe_get head (yo + 2)
      and di =
        Array.unsafe_get head (xo + 3) -. Array.unsafe_get head (yo + 3)
      in
      sum := !sum +. ((dr *. dr) +. (di *. di));
      if not (!sum > limit) then begin
        let dr =
          Array.unsafe_get head (xo + 4) -. Array.unsafe_get head (yo + 4)
        and di =
          Array.unsafe_get head (xo + 5) -. Array.unsafe_get head (yo + 5)
        in
        sum := !sum +. ((dr *. dr) +. (di *. di));
        if not (!sum > limit) then begin
          let dr =
            Array.unsafe_get head (xo + 6) -. Array.unsafe_get head (yo + 6)
          and di =
            Array.unsafe_get head (xo + 7) -. Array.unsafe_get head (yo + 7)
          in
          sum := !sum +. ((dr *. dr) +. (di *. di));
          if not (!sum > limit) then begin
            let y = Array.unsafe_get spectra j in
            let f = ref head_width and stop = ref n in
            while !f < !stop do
              let k = 2 * !f in
              let sr = Array.unsafe_get s k
              and si = Array.unsafe_get s (k + 1) in
              let xr = Array.unsafe_get x k
              and xi = Array.unsafe_get x (k + 1) in
              let yr = Array.unsafe_get y k
              and yi = Array.unsafe_get y (k + 1) in
              let dr =
                ((sr *. xr) -. (si *. xi)) -. ((sr *. yr) -. (si *. yi))
              in
              let di =
                ((sr *. xi) +. (si *. xr)) -. ((sr *. yi) +. (si *. yr))
              in
              sum := !sum +. ((dr *. dr) +. (di *. di));
              incr f;
              if !sum > limit then stop := !f
            done
          end
        end
      end
    end;
    if !sum <= threshold then begin
      Array.unsafe_set hits !found j;
      incr found
    end
  done;
  !found
