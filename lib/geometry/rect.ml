type t = {
  lo : float array;
  hi : float array;
}

let create ~lo ~hi =
  let d = Array.length lo in
  if d = 0 then invalid_arg "Rect.create: zero dimensions";
  if Array.length hi <> d then invalid_arg "Rect.create: dimension mismatch";
  let lo' = Array.make d 0. and hi' = Array.make d 0. in
  for i = 0 to d - 1 do
    if not (Float.is_finite lo.(i) && Float.is_finite hi.(i)) then
      invalid_arg "Rect.create: non-finite bound";
    lo'.(i) <- Float.min lo.(i) hi.(i);
    hi'.(i) <- Float.max lo.(i) hi.(i)
  done;
  { lo = lo'; hi = hi' }

let of_point p = create ~lo:(Array.copy p) ~hi:(Array.copy p)

let point p =
  if Array.length p = 0 then invalid_arg "Rect.create: zero dimensions";
  for i = 0 to Array.length p - 1 do
    if not (Float.is_finite p.(i)) then
      invalid_arg "Rect.create: non-finite bound"
  done;
  { lo = p; hi = p }

let dims r = Array.length r.lo

let union a b =
  if dims a <> dims b then invalid_arg "Rect.union: dimension mismatch";
  {
    lo = Array.map2 Float.min a.lo b.lo;
    hi = Array.map2 Float.max a.hi b.hi;
  }

(* One pass, each bound folded in list order by the [Float.min] or
   [Float.max] {!union} applies, into two fresh arrays. *)
let hull f = function
  | [] -> invalid_arg "Rect.hull: empty list"
  | x :: rest ->
    let first = f x in
    let lo = Array.copy first.lo and hi = Array.copy first.hi in
    let d = Array.length lo in
    List.iter
      (fun x ->
        let r = f x in
        if Array.length r.lo <> d then invalid_arg "Rect.hull: dimension mismatch";
        for i = 0 to d - 1 do
          lo.(i) <- Float.min lo.(i) r.lo.(i);
          hi.(i) <- Float.max hi.(i) r.hi.(i)
        done)
      rest;
    { lo; hi }

let union_many = function
  | [] -> invalid_arg "Rect.union_many: empty list"
  | rs -> hull Fun.id rs

let of_points = function
  | [] -> invalid_arg "Rect.of_points: empty list"
  | ps -> union_many (List.map of_point ps)

let contains_point r p =
  dims r = Array.length p
  &&
  let ok = ref true in
  for i = 0 to dims r - 1 do
    if p.(i) < r.lo.(i) || p.(i) > r.hi.(i) then ok := false
  done;
  !ok

let contains_rect outer inner =
  dims outer = dims inner
  &&
  let ok = ref true in
  for i = 0 to dims outer - 1 do
    if inner.lo.(i) < outer.lo.(i) || inner.hi.(i) > outer.hi.(i) then
      ok := false
  done;
  !ok

let intersects a b =
  if dims a <> dims b then invalid_arg "Rect.intersects: dimension mismatch";
  let ok = ref true in
  for i = 0 to dims a - 1 do
    if a.hi.(i) < b.lo.(i) || b.hi.(i) < a.lo.(i) then ok := false
  done;
  !ok

let intersection a b =
  if intersects a b then
    Some
      {
        lo = Array.map2 Float.max a.lo b.lo;
        hi = Array.map2 Float.min a.hi b.hi;
      }
  else None

let area r =
  let acc = ref 1. in
  for i = 0 to dims r - 1 do
    acc := !acc *. (r.hi.(i) -. r.lo.(i))
  done;
  !acc

let margin r =
  let acc = ref 0. in
  for i = 0 to dims r - 1 do
    acc := !acc +. (r.hi.(i) -. r.lo.(i))
  done;
  !acc

let overlap_area a b =
  match intersection a b with
  | None -> 0.
  | Some r -> area r

let enlargement r ~extra = area (union r extra) -. area r

let center r =
  Array.init (dims r) (fun i -> (r.lo.(i) +. r.hi.(i)) /. 2.)

let mindist p r =
  if Array.length p <> dims r then
    invalid_arg "Rect.mindist: dimension mismatch";
  let acc = ref 0. in
  for i = 0 to dims r - 1 do
    let d =
      if p.(i) < r.lo.(i) then r.lo.(i) -. p.(i)
      else if p.(i) > r.hi.(i) then p.(i) -. r.hi.(i)
      else 0.
    in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let equal ?(eps = 1e-9) a b =
  dims a = dims b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a.lo b.lo
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a.hi b.hi

let pp ppf r =
  Format.fprintf ppf "rect[%a .. %a]" Point.pp r.lo Point.pp r.hi
