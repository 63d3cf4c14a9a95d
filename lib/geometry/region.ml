let two_pi = 2. *. Float.pi

type range =
  | Linear of { lo : float; hi : float }
  | Circular of { lo : float; width : float }

type t = range array

let linear ~lo ~hi = Linear { lo = Float.min lo hi; hi = Float.max lo hi }

let circular ~lo ~hi =
  if hi < lo then invalid_arg "Region.circular: hi < lo";
  let width = Float.min (hi -. lo) two_pi in
  Circular { lo; width }

let full_circle = Circular { lo = -.Float.pi; width = two_pi }

(* Positive remainder of [x] modulo 2π, in [0, 2π). *)
let pos_mod x =
  let r = Float.rem x two_pi in
  if r < 0. then r +. two_pi else r

let contains_value range v =
  match range with
  | Linear { lo; hi } -> lo <= v && v <= hi
  | Circular { lo; width } ->
    if width >= two_pi then true else pos_mod (v -. lo) <= width +. 1e-12

(* Does the arc [lo, lo+width] (mod 2π) meet the plain interval
   [ilo, ihi]? Check every unwinding of the arc that can reach the
   interval. *)
let arc_meets_interval ~lo ~width ~ilo ~ihi =
  if width >= two_pi then true
  else begin
    let k_min = Float.to_int (Float.floor ((ilo -. lo -. width) /. two_pi)) in
    let k_max = Float.to_int (Float.ceil ((ihi -. lo) /. two_pi)) in
    let rec go k =
      if k > k_max then false
      else begin
        let a = lo +. (float_of_int k *. two_pi) in
        let b = a +. width in
        if a <= ihi && ilo <= b then true else go (k + 1)
      end
    in
    go k_min
  end

let meets_interval range ~lo:ilo ~hi:ihi =
  match range with
  | Linear { lo; hi } -> lo <= ihi && ilo <= hi
  | Circular { lo; width } -> arc_meets_interval ~lo ~width ~ilo ~ihi

(* Both tests stop at the first dimension that misses. *)
let contains region p =
  let dims = Array.length region in
  if dims <> Array.length p then
    invalid_arg "Region.contains: dimension mismatch";
  let rec go i = i >= dims || (contains_value region.(i) p.(i) && go (i + 1)) in
  go 0

let intersects_rect region (r : Rect.t) =
  let dims = Array.length region in
  if dims <> Rect.dims r then
    invalid_arg "Region.intersects_rect: dimension mismatch";
  let rec go i =
    i >= dims
    || meets_interval region.(i) ~lo:r.Rect.lo.(i) ~hi:r.Rect.hi.(i)
       && go (i + 1)
  in
  go 0

let pp_range ppf = function
  | Linear { lo; hi } -> Format.fprintf ppf "[%g, %g]" lo hi
  | Circular { lo; width } -> Format.fprintf ppf "arc(%g, +%g)" lo width

let pp ppf region =
  Format.fprintf ppf "region(%a)"
    (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       pp_range)
    (Array.to_seq region)
