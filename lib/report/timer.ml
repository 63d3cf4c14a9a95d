module Clock = Simq_obs.Clock
module Metrics = Simq_obs.Metrics

(* Every elapsed interval the harness measures is also observed into
   this histogram, so the [--metrics] exposition and the printed/CSV
   tables are two views of the same clock readings. *)
let m_seconds =
  Metrics.histogram ~help:"Every interval measured by Report.Timer, in seconds"
    "simq_timer_seconds"

let observe elapsed = Metrics.observe m_seconds elapsed

let time f =
  let start = Clock.now_ns () in
  let result = f () in
  let elapsed = Clock.elapsed_s start in
  observe elapsed;
  (result, elapsed)

let time_median ~runs f =
  if runs <= 0 then invalid_arg "Timer.time_median: runs must be positive";
  let result = ref None in
  let samples =
    Array.init runs (fun _ ->
        let r, elapsed = time f in
        result := Some r;
        elapsed)
  in
  Array.sort Float.compare samples;
  let median = samples.(runs / 2) in
  match !result with
  | Some r -> (r, median)
  | None -> assert false

let pp_seconds ppf s =
  if s < 1e-3 then Format.fprintf ppf "%.0fus" (s *. 1e6)
  else if s < 1. then Format.fprintf ppf "%.2fms" (s *. 1e3)
  else if s < 60. then Format.fprintf ppf "%.3fs" s
  else begin
    let minutes = int_of_float (s /. 60.) in
    Format.fprintf ppf "%d:%06.3f" minutes (s -. (60. *. float_of_int minutes))
  end
