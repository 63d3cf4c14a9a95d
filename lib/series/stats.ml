let require_non_empty name s =
  if Array.length s = 0 then invalid_arg (name ^ ": empty series")

(* Left-to-right sums over local float refs, which the compiler keeps
   unboxed (a fold's accumulator is boxed at every step). The deviation
   is squared with [** 2.], not [d *. d]: libm's [pow] rounds some
   squares differently, and every stored normal form depends on it. *)
let mean (s : Series.t) =
  require_non_empty "Stats.mean" s;
  let sum = ref 0. in
  for t = 0 to Array.length s - 1 do
    sum := !sum +. s.(t)
  done;
  !sum /. float_of_int (Array.length s)

let variance_about (s : Series.t) ~mean:m =
  require_non_empty "Stats.variance" s;
  let acc = ref 0. in
  for t = 0 to Array.length s - 1 do
    acc := !acc +. ((s.(t) -. m) ** 2.)
  done;
  !acc /. float_of_int (Array.length s)

let variance s =
  require_non_empty "Stats.variance" s;
  variance_about s ~mean:(mean s)

let std s = sqrt (variance s)

let minimum s =
  require_non_empty "Stats.minimum" s;
  Array.fold_left Float.min s.(0) s

let maximum s =
  require_non_empty "Stats.maximum" s;
  Array.fold_left Float.max s.(0) s

let covariance a b =
  require_non_empty "Stats.covariance" a;
  if Array.length a <> Array.length b then
    invalid_arg "Stats.covariance: length mismatch";
  let ma = mean a and mb = mean b in
  let acc = ref 0. in
  for t = 0 to Array.length a - 1 do
    acc := !acc +. ((a.(t) -. ma) *. (b.(t) -. mb))
  done;
  !acc /. float_of_int (Array.length a)

let correlation a b =
  let sa = std a and sb = std b in
  if sa = 0. || sb = 0. then 0. else covariance a b /. (sa *. sb)

let returns s =
  if Array.length s < 2 then invalid_arg "Stats.returns: series too short";
  Array.init
    (Array.length s - 1)
    (fun t ->
      if s.(t) = 0. then invalid_arg "Stats.returns: zero value";
      (s.(t + 1) -. s.(t)) /. s.(t))
