module Dsp = Simq_dsp
module Series = Simq_series.Series
module Ma = Simq_series.Moving_average
module Warp_op = Simq_series.Warp

type t =
  | Identity
  | Moving_average of int
  | Weighted_ma of Dsp.Window.t
  | Reverse
  | Warp of int

let apply_series t s =
  match t with
  | Identity -> s
  | Moving_average m -> Ma.circular (Dsp.Window.uniform m) s
  | Weighted_ma w -> Ma.circular w s
  | Reverse -> Series.reverse_sign s
  | Warp m -> Warp_op.expand m s

(* Coefficients [0 .. k-1] of the warp vector, each computed on its
   own, so a prefix holds the full vector's doubles. *)
let warp_stretch m ~n ~k =
  let a = Warp_op.coefficients ~m ~n ~k in
  Dsp.Flat.of_cpx (Dsp.Cpx.scale_array (1. /. sqrt (float_of_int m)) a)

(* Coefficients [0 .. ⌊n/2⌋], the weighted half's: a stretch multiplies
   a coefficient and its twin alike, so it is not weighted itself. *)
let compute t ~n =
  let h = Dsp.Fft.half n in
  let constant re =
    Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout (2 * h) (fun i ->
        if i mod 2 = 0 then re else 0.)
  and transfer w = Bigarray.Array1.sub (Dsp.Window.transfer n w) 0 (2 * h) in
  match t with
  | Identity -> constant 1.
  | Moving_average m -> transfer (Dsp.Window.uniform m)
  | Weighted_ma w -> transfer w
  | Reverse -> constant (-1.)
  | Warp m -> warp_stretch m ~n ~k:h

module Memo = Map.Make (struct type nonrec t = t * int let compare = compare end)

(* The shared stretches, by (spec, length): an immutable map in an
   [Atomic.t], extended by [compare_and_set], so readers never lock and
   a lost race recomputes the same bits. The query language names only
   id, rev, mavg(m) and wma(m), and [Window.kernel] rejects m > n, so
   the map holds at most 2n+2 entries per length. *)
let memo = Atomic.make Memo.empty

let rec stretch t ~n =
  match t with
  | Warp _ -> compute t ~n
  | _ -> (
    let table = Atomic.get memo and key = (t, n) in
    match Memo.find_opt key table with
    | Some s -> s
    | None ->
      let s = compute t ~n in
      if Atomic.compare_and_set memo table (Memo.add key s table) then s
      else stretch t ~n)

let feature_stretch t ~n ~k =
  let s =
    match t with Warp m -> warp_stretch m ~n ~k:(k + 1) | _ -> stretch t ~n
  in
  Dsp.Flat.sub s ~pos:1 ~len:k

(* A transfer is Σ_t w_t·e^(−2πi·f·t/n); the warp's coefficient f is
   Σ_j e^(−2πi·f·j/(m·n)) / √m. *)
let gain = function
  | Identity | Reverse -> 1.
  | Moving_average _ -> 1.
  | Weighted_ma w ->
    Array.fold_left (fun acc x -> acc +. Float.abs x) 0. w.Dsp.Window.weights
  | Warp m -> sqrt (float_of_int m)

let output_length t ~n =
  match t with
  | Identity | Moving_average _ | Weighted_ma _ | Reverse -> n
  | Warp m ->
    if m < 1 then invalid_arg "Spec.output_length: warp factor < 1";
    m * n

let name = function
  | Identity -> "id"
  | Moving_average m -> Printf.sprintf "mavg%d" m
  | Weighted_ma w -> Printf.sprintf "wma%d" (Dsp.Window.width w)
  | Reverse -> "rev"
  | Warp m -> Printf.sprintf "warp%d" m

let pp ppf t = Format.pp_print_string ppf (name t)
