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

(* The real part of coefficient [f] of [stretch · x], for [x] read
   from float index [xo], by [Complex.mul]'s formula: the head stores
   it, and the band join sorts by it. *)
let[@inline] stretched_re ~stretch x xo f =
  (stretch.(2 * f) *. x.(xo + (2 * f)))
  -. (stretch.((2 * f) + 1) *. x.(xo + (2 * f) + 1))

let stretch_prefix ~stretch x ~xo ~len dst ~off =
  let xo = 2 * xo in
  for f = 0 to len - 1 do
    let sr = stretch.(2 * f) and si = stretch.((2 * f) + 1) in
    let xr = x.(xo + (2 * f)) and xi = x.(xo + (2 * f) + 1) in
    dst.(2 * (off + f)) <- stretched_re ~stretch x xo f;
    dst.((2 * (off + f)) + 1) <- (sr *. xi) +. (si *. xr)
  done

let stretch_into ~stretch x dst ~off =
  if Array.length stretch <> Array.length x || off < 0
     || (2 * off) + Array.length x > Array.length dst
  then invalid_arg "Flat.stretch_into: length mismatch";
  stretch_prefix ~stretch x ~xo:0 ~len:(length x) dst ~off

type acc = { mutable sum : float }

let acc () = { sum = 0. }

(* The bounds are checked once up front, so the loops read unchecked;
   [sum] is a local float ref the compiler keeps unboxed, stored back
   into the all-float [acc] record once at the end. Inlined into its
   callers, so a computed [limit] is never boxed. *)
let[@inline] kernel ~stretch ~limit ~lo ~hi x xo y yo acc =
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

let sq_dist ~stretch ~limit ~lo ~hi x xo y yo acc =
  kernel ~stretch ~limit ~lo ~hi x xo y yo acc

let dist_within ~stretch ~lo ~hi x xo y yo acc ~within =
  let w = within.sum in
  let limit = w *. w in
  let touched = kernel ~stretch ~limit ~lo ~hi x xo y yo acc in
  (* Past the limit by rounding alone: complete the sum. *)
  if acc.sum > limit && not (sqrt acc.sum > w) then
    ignore
      (kernel ~stretch ~limit:infinity ~lo:(lo + touched) ~hi x xo y yo acc);
  within.sum <- sqrt acc.sum

(* The mirrored bound, proved here once for every filter that uses it.

   Write Δ_f = S_f·X_f − Q_f for the stored doubles of a stretch S, a
   stored spectrum X and the spectrum Q it is compared with, in exact
   arithmetic, and D = ‖Δ‖. Let F be coefficients in 1 .. n−1 whose
   twins n−F are disjoint from F and from a set G (coefficient 0 is its
   own twin and may be in G). The vectors (Δ_G, Δ_F, |Δ_F|) and
   (Δ_G, Δ_F, |Δ_(n−F)|) differ by the twin gaps
   η_f = | |Δ_(n−f)| − |Δ_f| |, and the second has norm at most D, so
   by the triangle inequality

     sqrt (Σ_G |Δ_g|² + 2·Σ_F |Δ_f|²) <= D + ‖η‖.

   The gaps come from rounding alone. The exact DFT of a real series is
   conjugate-symmetric, and so is the stretch of id, rev and every
   moving average (the DFT of a real window). Let u = 2^-53 and ρ bound
   the transform's normwise relative error, ‖F̂x − Fx‖ <= ρ‖x‖. The
   radix-2 transform's twiddles come from a recurrence, each within
   about 2.5·n·u, which gives ρ <= 3·n·log2 n·u (Higham, Accuracy and
   Stability, §24.1); Bluestein's three radix-2 transforms of length
   m < 4n, its chirp products and the 1/m scaling give
   ρ <= 70·n^1.5·log2(4n)·u, which covers both. So the asymmetries e
   of X, g of Q and σ of S (a window's transfer is √n times a
   transform; id and rev have none) satisfy ‖e‖ <= 2ρ‖x‖,
   ‖g‖ <= 2ρ‖q‖ and ‖σ‖ <= 2ρ·√n·s, for s = max(1, gain) where the
   gain bounds every |S_f|. Expanding
   Δ_(n−f) = conj Δ_f + conj S_f·e_f + σ_f·X_(n−f) − g_f gives
   ‖η‖ <= 2ρ(1 + ρ)(1 + √n)·Λ, where Λ = 2s·N and N bounds ‖x‖ and
   ‖q‖ (a join's two stored spectra play the parts of x and q). The
   kernel's rounding moves its result from D by at most (n + 6)·u·Λ,
   and each filter's own arithmetic (region corners, the node bound
   after its own slack, the head key, the band keys and sums) by a few
   ulps of Λ. Altogether that is under 3e-14·n²·log2(4n)·Λ, and
   {!rounding_slack} takes 1e-12·n²·log2(4n)·Λ, over thirty times as
   much: about 3e-6 at n = 128 for normal forms (N = √n, s = 1), where
   the stored spectra's measured asymmetry is about 1e-14.

   So with τ = {!rounding_slack}, every stored spectrum whose kernel
   distance is within ε has ‖Δ_F‖ <= (ε + τ)/√2, and every one has a
   kernel distance of at least sqrt (Σ_G |Δ_g|² + 2·Σ_F |Δ_f|²) − τ.
   The 1e-9·ε of {!twin_radius} covers ε's own ulps, as in the band
   join's one-sided width, and τ is at least 1e-10·Λ, a million ulps
   of any coefficient, so it covers the rounding of every comparison
   with the radius. Without twins the same accounting, η aside, bounds
   ‖Δ_F‖ by ε·(1 + 1e-9) + τ. *)
let rounding_slack ~n ~gain ~norm =
  let n = float_of_int n in
  1e-12 *. n *. n *. Float.log2 (4. *. n) *. (2. *. Float.max 1. gain *. norm)

(* fl(1/√2), which lies above 1/√2. *)
let[@inline] twin_radius ~slack epsilon =
  ((epsilon *. (1. +. 1e-9)) +. slack) *. 0.7071067811865476

(* One 64-byte cache line of coefficients per entry (see the .mli);
   {!pair_sum} walks exactly these four, unrolled. *)
let head_width = 4

type rows = {
  stretch : t;
  buf : t;  (* the spectra, each [n] coefficients long *)
  offs : int array;  (* position [p]'s spectrum from float index [offs.(p)] *)
  n : int;
  head : t;  (* position [p]'s stretched head from coefficient [p·head_width] *)
  key_re : t;  (* position [p]'s stretched coefficient 1, copied from the *)
  key_im : t;  (* head so that the band pre-pass reads it densely *)
  twin : float;  (* the mirrored bound's slack, [infinity] for none *)
}

let sort_key ~stretch heads ~slot =
  if slot < 0 || 2 * head_width * (slot + 1) > Array.length heads then
    invalid_arg "Flat.sort_key: slot out of bounds";
  if length stretch < 2 then 0.
  else stretched_re ~stretch heads (2 * head_width * slot) 1

(* [b] sorts strictly before [a] by [Float.compare]: NaN before every
   other double and equal to itself, [-0.] equal to [0.]. *)
let[@inline] before (b : float) (a : float) = b < a || (b <> b && a = a)

(* A bottom-up merge sort of the indices, comparing their keys:
   insertion-sorted runs of [run], then merges of doubling width from
   one index array into the other. Both move an index only past one
   whose key is strictly greater and take the left run's index on
   ties, so the sort is stable. Only two [count]-long int arrays are
   made; the keys are read in place. *)
let key_order keys =
  let count = Array.length keys in
  let run = 16 in
  let o = ref (Array.init count Fun.id) and o' = ref (Array.make count 0) in
  let lo = ref 0 in
  while !lo < count do
    let hi = Int.min count (!lo + run) and o = !o in
    for i = !lo + 1 to hi - 1 do
      let xi = Array.unsafe_get o i in
      let x = Array.unsafe_get keys xi in
      let j = ref (i - 1) in
      while
        !j >= !lo && before x (Array.unsafe_get keys (Array.unsafe_get o !j))
      do
        Array.unsafe_set o (!j + 1) (Array.unsafe_get o !j);
        decr j
      done;
      Array.unsafe_set o (!j + 1) xi
    done;
    lo := hi
  done;
  let width = ref run in
  while !width < count do
    let src = !o and dst = !o' in
    let lo = ref 0 in
    while !lo < count do
      let mid = Int.min count (!lo + !width) in
      let hi = Int.min count (mid + !width) in
      let a = ref !lo and b = ref mid and d = ref !lo in
      while !a < mid && !b < hi do
        let ia = Array.unsafe_get src !a and ib = Array.unsafe_get src !b in
        let ka = Array.unsafe_get keys ia and kb = Array.unsafe_get keys ib in
        if before kb ka then begin
          Array.unsafe_set dst !d ib;
          incr b
        end
        else begin
          Array.unsafe_set dst !d ia;
          incr a
        end;
        incr d
      done;
      Array.blit src !a dst !d (mid - !a);
      Array.blit src !b dst (!d + mid - !a) (hi - !b);
      lo := hi
    done;
    o := dst;
    o' := src;
    width := 2 * !width
  done;
  !o

let rows ~stretch ?order ~heads buf slots =
  let n = length stretch in
  Array.iter
    (fun slot ->
      if slot < 0 || 2 * n * (slot + 1) > Array.length buf
         || 2 * head_width * (slot + 1) > Array.length heads
      then invalid_arg "Flat.rows: slot out of bounds")
    slots;
  let count = Array.length slots in
  let order =
    match order with
    | None -> Array.init count Fun.id
    | Some order ->
      if Array.length order <> count then
        invalid_arg "Flat.rows: order length differs from the slots";
      order
  in
  let offs = Array.make count 0 in
  (* Zero past coefficient [n - 1]: such a coefficient adds [0.] to the
     sum, which leaves it and every abandon test unchanged. *)
  let head = Array.make (2 * head_width * count) 0. in
  let key_re = create count and key_im = create count in
  let len = Int.min head_width n in
  Array.iteri
    (fun p r ->
      let slot = slots.(r) in
      offs.(p) <- 2 * n * slot;
      stretch_prefix ~stretch heads ~xo:(head_width * slot) ~len head
        ~off:(p * head_width);
      key_re.(p) <- head.((2 * head_width * p) + 2);
      key_im.(p) <- head.((2 * head_width * p) + 3))
    order;
  { stretch; buf; offs; n; head; key_re; key_im; twin = infinity }

let mirrored r ~slack = { r with twin = slack }

(* Coefficients [head_width .. n-1] of the pair's squared distance,
   added to [sum] and abandoned at [limit]: {!sq_dist}'s arithmetic,
   stretching both sides with the same [Complex.mul] formula
   {!stretch_into} uses, so every difference, sum and abandon test sees
   the doubles of two pre-stretched spectra. The callers checked every
   index, so the loads are unchecked; inlined, the float result stays
   unboxed. *)
let[@inline] tail_sum r ~limit ~i ~j sum =
  let s = r.stretch and buf = r.buf and offs = r.offs in
  let sum = ref sum in
  let xs = Array.unsafe_get offs i and ys = Array.unsafe_get offs j in
  let f = ref head_width and stop = ref r.n in
  while !f < !stop do
    let k = 2 * !f in
    let sr = Array.unsafe_get s k and si = Array.unsafe_get s (k + 1) in
    let xr = Array.unsafe_get buf (xs + k)
    and xi = Array.unsafe_get buf (xs + k + 1) in
    let yr = Array.unsafe_get buf (ys + k)
    and yi = Array.unsafe_get buf (ys + k + 1) in
    let dr = ((sr *. xr) -. (si *. xi)) -. ((sr *. yr) -. (si *. yi)) in
    let di = ((sr *. xi) +. (si *. xr)) -. ((sr *. yi) +. (si *. yr)) in
    sum := !sum +. ((dr *. dr) +. (di *. di));
    incr f;
    if !sum > limit then stop := !f
  done;
  !sum

(* The squared distance between positions [i] and [j], abandoned at
   [limit]: the head's stretched coefficients, then {!tail_sum}. The
   four head coefficients are unrolled: a loop over them costs more
   than their arithmetic. *)
let[@inline] pair_sum r ~limit ~i ~j =
  let head = r.head in
  let xo = 2 * head_width * i and yo = 2 * head_width * j in
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
        if not (!sum > limit) then sum := tail_sum r ~limit ~i ~j !sum
      end
    end
  end;
  !sum

let within_row r ~limit ~threshold ~i ~j0 hits =
  let count = Array.length r.offs in
  if i < 0 || i >= count || j0 < 0 || j0 > count
     || Array.length hits < count - j0
  then invalid_arg "Flat.within_row: row out of bounds";
  let found = ref 0 in
  for j = j0 to count - 1 do
    if pair_sum r ~limit ~i ~j <= threshold then begin
      Array.unsafe_set hits !found j;
      incr found
    end
  done;
  !found

(* The pre-pass is coefficient 1's term of {!pair_sum}, the same
   doubles in the same order. It stores every [j] and advances the
   count by the comparison's 0 or 1, so no branch depends on the data.
   Each survivor then passes the head exit, the terms of coefficients
   1 .. head_width−1 summed and held to the pre-pass's [bound], before
   the kernel's own sum over the head and the tail. Both filters are
   proved in the .mli. Hits are compacted into the same buffer, never
   written past the candidate read. *)
let within_band r ~limit ~threshold ~i ~j1 buf =
  let count = Array.length r.offs in
  if i < 0 || i >= count || j1 <= i || j1 > count
     || Array.length buf < j1 - i - 1
  then invalid_arg "Flat.within_band: row out of bounds";
  if not (threshold <= limit) then
    invalid_arg "Flat.within_band: limit below the threshold";
  let bound =
    let radius = twin_radius ~slack:r.twin (sqrt threshold) in
    let twin = radius *. radius in
    if twin < threshold then twin else threshold
  in
  let re = r.key_re and im = r.key_im in
  let xr = Array.unsafe_get re i and xi = Array.unsafe_get im i in
  let kept = ref 0 in
  for j = i + 1 to j1 - 1 do
    let dr = xr -. Array.unsafe_get re j and di = xi -. Array.unsafe_get im j in
    Array.unsafe_set buf !kept j;
    kept := !kept + Bool.to_int ((dr *. dr) +. (di *. di) <= bound)
  done;
  let head = r.head and xo = 2 * head_width * i in
  let x0r = Array.unsafe_get head xo and x0i = Array.unsafe_get head (xo + 1)
  and x1r = Array.unsafe_get head (xo + 2) and x1i = Array.unsafe_get head (xo + 3)
  and x2r = Array.unsafe_get head (xo + 4) and x2i = Array.unsafe_get head (xo + 5)
  and x3r = Array.unsafe_get head (xo + 6)
  and x3i = Array.unsafe_get head (xo + 7) in
  let found = ref 0 in
  for c = 0 to !kept - 1 do
    let j = Array.unsafe_get buf c in
    let yo = 2 * head_width * j in
    let dr = x1r -. Array.unsafe_get head (yo + 2)
    and di = x1i -. Array.unsafe_get head (yo + 3) in
    let t1 = (dr *. dr) +. (di *. di) in
    let dr = x2r -. Array.unsafe_get head (yo + 4)
    and di = x2i -. Array.unsafe_get head (yo + 5) in
    let t2 = (dr *. dr) +. (di *. di) in
    let dr = x3r -. Array.unsafe_get head (yo + 6)
    and di = x3i -. Array.unsafe_get head (yo + 7) in
    let t3 = (dr *. dr) +. (di *. di) in
    if (t1 +. t2) +. t3 <= bound then begin
      let dr = x0r -. Array.unsafe_get head yo
      and di = x0i -. Array.unsafe_get head (yo + 1) in
      let sum = ((((dr *. dr) +. (di *. di)) +. t1) +. t2) +. t3 in
      let sum = if sum > limit then sum else tail_sum r ~limit ~i ~j sum in
      if sum <= threshold then begin
        Array.unsafe_set buf !found j;
        incr found
      end
    end
  done;
  !found
