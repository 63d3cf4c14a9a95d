(* Timing and summary statistics. *)

let now_ns () = Simq_obs.Clock.now_ns ()
let since_s t0 = Simq_obs.Clock.elapsed_s t0

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)

(* CPU seconds of this process (every thread and domain), and of its
   waited-for children. Time stolen by the hypervisor counts in
   neither. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* The peak resident set of the largest waited-for child process, in
   MB. Linux counts a child's peak as at least its parent's at the
   moment of the spawn, so this measures the children only while the
   parent has stayed smaller than they are. *)
external children_maxrss_kb : unit -> int = "perfbench_children_maxrss_kb"

let children_peak_mb () =
  match children_maxrss_kb () with
  | kb when kb > 0 -> float_of_int (kb * 1024) /. 1e6
  | _ -> failwith "getrusage(RUSAGE_CHILDREN) failed"

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks, on a sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

let sum xs = Array.fold_left ( +. ) 0. xs

(* A percentile is reported only when at least ten samples lie beyond
   it. *)
let tail_ok ~n q = float_of_int n *. (1. -. q) >= 10. -. 1e-9

let ratio a b = if b = 0. then 0. else a /. b
