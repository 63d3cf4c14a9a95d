module A = Bigarray.Array1

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t

(* Every access goes through these: the kind and layout are known, so
   the compiler inlines them as plain loads and stores of unboxed
   doubles. The callers check their ranges first. *)
let[@inline] get (x : t) i = A.unsafe_get x i
let[@inline] set (x : t) i v = A.unsafe_set x i v
let[@inline] dim (x : t) = A.dim x

let create n = A.create Bigarray.float64 Bigarray.c_layout (2 * n)

let zeros n =
  let x = create n in
  A.fill x 0.;
  x

let of_cpx zs =
  let x = create (Array.length zs) in
  Array.iteri
    (fun f (z : Cpx.t) ->
      set x (2 * f) z.Complex.re;
      set x ((2 * f) + 1) z.Complex.im)
    zs;
  x

let length x = dim x / 2

let coeff x f =
  if f < 0 || f >= length x then invalid_arg "Flat.coeff: out of bounds";
  { Complex.re = get x (2 * f); im = get x ((2 * f) + 1) }

let sub x ~pos ~len = Array.init len (fun i -> coeff x (pos + i))
let to_cpx x = sub x ~pos:0 ~len:(length x)

(* One [memmove] of [len] doubles, no allocation: a row copied through
   [A.sub] views makes two custom blocks, and a loop over the elements
   costs several times the copy. *)
external memmove : t -> int -> t -> int -> int -> unit = "simq_flat_blit"
[@@noalloc]

let blit x ~pos y ~off ~len =
  if pos < 0 || off < 0 || len < 0
     || 2 * (pos + len) > dim x
     || 2 * (off + len) > dim y
  then invalid_arg "Flat.blit: out of bounds";
  memmove x (2 * pos) y (2 * off) (2 * len)

let energy x =
  let e = ref 0. in
  for i = 0 to dim x - 1 do
    let v = get x i in
    e := !e +. (v *. v)
  done;
  !e

(* The real part of coefficient [f] of [stretch · x], for [x] read
   from float index [xo], by [Complex.mul]'s formula: the head stores
   it, and the band join sorts by it. *)
let[@inline] stretched_re ~stretch x xo f =
  (get stretch (2 * f) *. get x (xo + (2 * f)))
  -. (get stretch ((2 * f) + 1) *. get x (xo + (2 * f) + 1))

let stretch_prefix ~stretch x ~xo ~len dst ~off =
  if xo < 0 || off < 0 || len < 0
     || 2 * len > dim stretch
     || 2 * (xo + len) > dim x
     || 2 * (off + len) > dim dst
  then invalid_arg "Flat.stretch_prefix: out of bounds";
  let xo = 2 * xo in
  for f = 0 to len - 1 do
    let sr = get stretch (2 * f) and si = get stretch ((2 * f) + 1) in
    let xr = get x (xo + (2 * f)) and xi = get x (xo + (2 * f) + 1) in
    set dst (2 * (off + f)) (stretched_re ~stretch x xo f);
    set dst ((2 * (off + f)) + 1) ((sr *. xi) +. (si *. xr))
  done

let stretch_into ~stretch x dst ~off =
  if dim stretch <> dim x || off < 0
     || (2 * off) + dim x > dim dst
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
     || 2 * (xo + hi) > dim x
     || 2 * (yo + hi) > dim y
  then invalid_arg "Flat.sq_dist: range out of bounds";
  let xo = 2 * xo and yo = 2 * yo in
  let sum = ref acc.sum in
  let f = ref lo and stop = ref hi in
  (match stretch with
  | None ->
    while !f < !stop do
      let i = 2 * !f in
      let dr = get x (xo + i) -. get y (yo + i) in
      let di =
        get x (xo + i + 1) -. get y (yo + i + 1)
      in
      sum := !sum +. ((dr *. dr) +. (di *. di));
      incr f;
      if !sum > limit then stop := !f
    done
  | Some s ->
    if 2 * hi > dim s then
      invalid_arg "Flat.sq_dist: stretch too short";
    while !f < !stop do
      let i = 2 * !f in
      let sr = get s i and si = get s (i + 1) in
      let xr = get x (xo + i)
      and xi = get x (xo + i + 1) in
      let dr = ((sr *. xr) -. (si *. xi)) -. get y (yo + i) in
      let di = ((sr *. xi) +. (si *. xr)) -. get y (yo + i + 1) in
      sum := !sum +. ((dr *. dr) +. (di *. di));
      incr f;
      if !sum > limit then stop := !f
    done);
  acc.sum <- !sum;
  !f - lo

let sq_dist ~stretch ~limit ~lo ~hi x xo y yo acc =
  kernel ~stretch ~limit ~lo ~hi x xo y yo acc

type mirror = { slack : float; mutable t0 : float }

let mirror ~slack = { slack; t0 = 0. }

(* The limit at which a running sum [S] with first term [t0] passes
   the twin test [2·S − t0 > bound], taken as the plain test
   [S > (bound + t0)/2] (proved at {!rounding_slack}). *)
let[@inline] twin_limit ~bound ~t0 = (bound +. t0) *. 0.5

(* With twins, coefficients [lo .. ⌈hi/2⌉−1] run under the twin test,
   the rest, or all of them without twins, under the plain one. *)
let dist_within ~stretch ?mirror ~lo ~hi x xo y yo acc ~within =
  let w = within.sum in
  let limit = w *. w in
  let from = ref lo and over = ref false in
  (match mirror with
  | Some m when lo < (hi + 1) / 2 && m.slack < infinity ->
    if lo = 0 then
      from := kernel ~stretch ~limit:infinity ~lo:0 ~hi:1 x xo y yo acc;
    let t0 = if lo = 0 then acc.sum else m.t0 in
    let twin =
      let b = w +. m.slack in
      twin_limit ~bound:(b *. b) ~t0
    in
    from :=
      !from
      + kernel ~stretch ~limit:twin ~lo:!from ~hi:((hi + 1) / 2) x xo y yo acc;
    if acc.sum > twin then begin
      over := true;
      let b = sqrt ((2. *. acc.sum) -. t0) -. m.slack in
      within.sum <- (if b > w then b else Float.succ w)
    end
  | _ -> ());
  if not !over then begin
    let lo = !from in
    let touched = kernel ~stretch ~limit ~lo ~hi x xo y yo acc in
    (* Past the limit by rounding alone: complete the sum. *)
    if acc.sum > limit && not (sqrt acc.sum > w) then
      ignore
        (kernel ~stretch ~limit:infinity ~lo:(lo + touched) ~hi x xo y yo acc);
    within.sum <- sqrt acc.sum
  end

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
   ‖Δ_F‖ by ε·(1 + 1e-9) + τ.

   The twin abandon of {!dist_within} and of the band join's tail
   takes G = {0} and F = {1 .. j} for j <= ⌈n/2⌉−1 < n/2, whose twins
   n−j .. n−1 lie past n/2, apart from F and from 0. Its bound,
   T_0 + 2·Σ_F |Δ_f|², is 2·S_j − T_0 for the kernel's own running sum
   S_j and first term T_0, and the test that it exceeds (w + τ)², for a
   double w >= 0, is taken as S_j > L with
   L = fl (fl (fl (w + τ)² + T_0)·0.5): the kernel's rounding, doubled,
   and a few roundings more. The test can pass only when
   w + τ < √2·Λ (the bound is at most 2·D², rounding aside, and
   D <= Λ), and T_0 <= D², so each of those roundings is an ulp of Λ²
   at most, and their roots move the test by a few ulps of Λ. With the
   kernel's rounding and ‖η‖ that is within the budget τ covers thirty
   times over, as above. So when S_j > L, the kernel distance is at
   least sqrt (T_0 + 2·Σ_F |Δ_f|²) − τ > w:
   the sum can be abandoned there, and no sum whose distance is within
   w is. The band join tests its squared sums against a threshold; it
   takes w = fl(sqrt threshold), and a sum whose correctly rounded
   root is above that is above the threshold. *)
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
  key_re : float array;  (* position [p]'s stretched coefficient 1, copied *)
  key_im : float array;  (* from the head so the band pre-pass reads it densely *)
  twin : float;  (* the mirrored bound's slack, [infinity] for none *)
}

let sort_key ~stretch heads ~slot =
  if slot < 0 || 2 * head_width * (slot + 1) > dim heads then
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
      if slot < 0 || 2 * n * (slot + 1) > dim buf
         || 2 * head_width * (slot + 1) > dim heads
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
  let head = zeros (head_width * count) in
  let key_re = Array.create_float count and key_im = Array.create_float count in
  let len = Int.min head_width n in
  Array.iteri
    (fun p r ->
      let slot = slots.(r) in
      offs.(p) <- 2 * n * slot;
      stretch_prefix ~stretch heads ~xo:(head_width * slot) ~len head
        ~off:(p * head_width);
      key_re.(p) <- get head ((2 * head_width * p) + 2);
      key_im.(p) <- get head ((2 * head_width * p) + 3))
    order;
  { stretch; buf; offs; n; head; key_re; key_im; twin = infinity }

let mirrored r ~slack = { r with twin = slack }

(* Coefficients [head_width .. n-1] of the pair's squared distance,
   added to [sum] and abandoned at [limit]: {!sq_dist}'s arithmetic,
   stretching both sides with the same [Complex.mul] formula
   {!stretch_into} uses, so every difference, sum and abandon test sees
   the doubles of two pre-stretched spectra. With a finite [twin] (a
   {!twin_limit}), coefficients up to [⌈n/2⌉−1] are abandoned at it
   instead, {!dist_within}'s twin test, and a sum abandoned there comes
   back as [infinity]. The callers checked every
   index, so the loads are unchecked; inlined, the float result stays
   unboxed. *)
let[@inline] tail_sum r ~limit ~twin ~i ~j sum =
  let s = r.stretch and buf = r.buf and offs = r.offs in
  let sum = ref sum and over = ref false in
  let xs = Array.unsafe_get offs i and ys = Array.unsafe_get offs j in
  let half = if twin < infinity then (r.n + 1) / 2 else head_width in
  let f = ref head_width and stop = ref r.n in
  let lim = ref (if head_width < half then twin else limit) in
  while !f < !stop do
    let k = 2 * !f in
    let sr = get s k and si = get s (k + 1) in
    let xr = get buf (xs + k)
    and xi = get buf (xs + k + 1) in
    let yr = get buf (ys + k)
    and yi = get buf (ys + k + 1) in
    let dr = ((sr *. xr) -. (si *. xi)) -. ((sr *. yr) -. (si *. yi)) in
    let di = ((sr *. xi) +. (si *. xr)) -. ((sr *. yi) +. (si *. yr)) in
    sum := !sum +. ((dr *. dr) +. (di *. di));
    incr f;
    if !sum > !lim then begin
      over := !f <= half;
      stop := !f
    end
    else if !f = half then lim := limit
  done;
  if !over then infinity else !sum

(* The squared distance between positions [i] and [j], abandoned at
   [limit]: the head's stretched coefficients, then {!tail_sum}. The
   four head coefficients are unrolled: a loop over them costs more
   than their arithmetic. *)
let[@inline] pair_sum r ~limit ~i ~j =
  let head = r.head in
  let xo = 2 * head_width * i and yo = 2 * head_width * j in
  let sum = ref 0. in
  let dr = get head xo -. get head yo
  and di = get head (xo + 1) -. get head (yo + 1) in
  sum := !sum +. ((dr *. dr) +. (di *. di));
  if not (!sum > limit) then begin
    let dr = get head (xo + 2) -. get head (yo + 2)
    and di =
      get head (xo + 3) -. get head (yo + 3)
    in
    sum := !sum +. ((dr *. dr) +. (di *. di));
    if not (!sum > limit) then begin
      let dr =
        get head (xo + 4) -. get head (yo + 4)
      and di =
        get head (xo + 5) -. get head (yo + 5)
      in
      sum := !sum +. ((dr *. dr) +. (di *. di));
      if not (!sum > limit) then begin
        let dr =
          get head (xo + 6) -. get head (yo + 6)
        and di =
          get head (xo + 7) -. get head (yo + 7)
        in
        sum := !sum +. ((dr *. dr) +. (di *. di));
        if not (!sum > limit) then
          sum := tail_sum r ~limit ~twin:infinity ~i ~j !sum
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
  (* The tail's twin bound at w = fl(sqrt threshold) ([infinity]
     without twins). *)
  let twin =
    let b = sqrt threshold +. r.twin in
    b *. b
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
  let x0r = get head xo and x0i = get head (xo + 1)
  and x1r = get head (xo + 2) and x1i = get head (xo + 3)
  and x2r = get head (xo + 4) and x2i = get head (xo + 5)
  and x3r = get head (xo + 6)
  and x3i = get head (xo + 7) in
  let found = ref 0 in
  for c = 0 to !kept - 1 do
    let j = Array.unsafe_get buf c in
    let yo = 2 * head_width * j in
    let dr = x1r -. get head (yo + 2)
    and di = x1i -. get head (yo + 3) in
    let t1 = (dr *. dr) +. (di *. di) in
    let dr = x2r -. get head (yo + 4)
    and di = x2i -. get head (yo + 5) in
    let t2 = (dr *. dr) +. (di *. di) in
    let dr = x3r -. get head (yo + 6)
    and di = x3i -. get head (yo + 7) in
    let t3 = (dr *. dr) +. (di *. di) in
    if (t1 +. t2) +. t3 <= bound then begin
      let dr = x0r -. get head yo
      and di = x0i -. get head (yo + 1) in
      let t0 = (dr *. dr) +. (di *. di) in
      let sum = ((t0 +. t1) +. t2) +. t3 in
      let sum =
        if sum > limit then sum
        else tail_sum r ~limit ~twin:(twin_limit ~bound:twin ~t0) ~i ~j sum
      in
      if sum <= threshold then begin
        Array.unsafe_set buf !found j;
        incr found
      end
    end
  done;
  !found
