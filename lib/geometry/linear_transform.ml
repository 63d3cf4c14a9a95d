type t = {
  a : float array;
  b : float array;
}

let create ~a ~b =
  if Array.length a <> Array.length b then
    invalid_arg "Linear_transform.create: dimension mismatch";
  if Array.length a = 0 then invalid_arg "Linear_transform.create: empty";
  Array.iter
    (fun v ->
      if not (Float.is_finite v) then
        invalid_arg "Linear_transform.create: non-finite coefficient")
    a;
  Array.iter
    (fun v ->
      if not (Float.is_finite v) then
        invalid_arg "Linear_transform.create: non-finite coefficient")
    b;
  { a = Array.copy a; b = Array.copy b }

let identity d = create ~a:(Array.make d 1.) ~b:(Array.make d 0.)
let translation b = create ~a:(Array.make (Array.length b) 1.) ~b
let dims t = Array.length t.a

let is_identity ?(eps = 0.) t =
  Array.for_all (fun v -> Float.abs (v -. 1.) <= eps) t.a
  && Array.for_all (fun v -> Float.abs v <= eps) t.b

let apply t p =
  if Array.length p <> dims t then
    invalid_arg "Linear_transform.apply: dimension mismatch";
  Array.init (dims t) (fun i -> (t.a.(i) *. p.(i)) +. t.b.(i))

let apply_rect t (r : Rect.t) =
  (* Rect.create renormalises when a negative stretch swaps the bounds. *)
  Rect.create ~lo:(apply t r.Rect.lo) ~hi:(apply t r.Rect.hi)

let compose outer inner =
  if dims outer <> dims inner then
    invalid_arg "Linear_transform.compose: dimension mismatch";
  let d = dims outer in
  {
    a = Array.init d (fun i -> outer.a.(i) *. inner.a.(i));
    b = Array.init d (fun i -> (outer.a.(i) *. inner.b.(i)) +. outer.b.(i));
  }

let inverse t =
  if Array.exists (fun v -> v = 0.) t.a then None
  else
    Some
      {
        a = Array.map (fun v -> 1. /. v) t.a;
        b = Array.mapi (fun i v -> -.v /. t.a.(i)) t.b;
      }

let pp ppf t =
  Format.fprintf ppf "T(a=%a, b=%a)" Point.pp t.a Point.pp t.b
