let check name a b =
  if Array.length a <> Array.length b then
    invalid_arg ("Distance." ^ name ^ ": length mismatch")

let euclidean a b =
  check "euclidean" a b;
  let acc = ref 0. in
  for t = 0 to Array.length a - 1 do
    let d = a.(t) -. b.(t) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let euclidean_early_abandon ~threshold a b =
  check "euclidean_early_abandon" a b;
  let limit = threshold *. threshold in
  let n = Array.length a in
  let rec go t acc =
    (* Past the limit by rounding alone (root not above [threshold]):
       keep summing. *)
    if acc > limit && sqrt acc > threshold then None
    else if t >= n then Some (sqrt acc)
    else begin
      let d = a.(t) -. b.(t) in
      go (t + 1) (acc +. (d *. d))
    end
  in
  go 0 0.

let within ~threshold a b =
  match euclidean_early_abandon ~threshold a b with
  | Some _ -> true
  | None -> false
