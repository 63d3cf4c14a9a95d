(* Bounded telemetry history: periodic registry snapshots and the
   windowed-rate view over the newest pair. See history.mli. *)

type snap = { at_s : float; samples : Metrics.sample list }

type t = {
  registry : Metrics.registry option;
  capacity : int;
  interval_s : float;
  mutex : Mutex.t;
  mutable snaps : snap list; (* newest first, length <= capacity *)
  mutable sampler : Thread.t option;
  stop_flag : bool Atomic.t;
}

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let create ?registry ?(capacity = 120) ?(interval_s = 1.) () =
  if capacity < 2 then invalid_arg "History.create: capacity must be >= 2";
  if not (Float.is_finite interval_s) || interval_s <= 0. then
    invalid_arg "History.create: interval_s must be positive";
  {
    registry;
    capacity;
    interval_s;
    mutex = Mutex.create ();
    snaps = [];
    sampler = None;
    stop_flag = Atomic.make false;
  }

let interval_s t = t.interval_s
let capacity t = t.capacity

let take n l =
  let rec go n = function
    | x :: rest when n > 0 -> x :: go (n - 1) rest
    | _ -> []
  in
  go n l

let sample t =
  let samples = Metrics.snapshot ?registry:t.registry () in
  let s = { at_s = now_s (); samples } in
  Mutex.lock t.mutex;
  t.snaps <- take t.capacity (s :: t.snaps);
  Mutex.unlock t.mutex

let length t =
  Mutex.lock t.mutex;
  let n = List.length t.snaps in
  Mutex.unlock t.mutex;
  n

(* The sampler sleeps in short ticks so [stop] joins promptly even
   with a seconds-scale interval. *)
let tick_s = 0.05

let sampler_loop t =
  let rec wait remaining =
    if not (Atomic.get t.stop_flag) && remaining > 0. then begin
      Thread.delay (Float.min tick_s remaining);
      wait (remaining -. tick_s)
    end
  in
  while not (Atomic.get t.stop_flag) do
    wait t.interval_s;
    if not (Atomic.get t.stop_flag) then sample t
  done

let start t =
  match t.sampler with
  | Some _ -> ()
  | None ->
      Atomic.set t.stop_flag false;
      sample t;
      t.sampler <- Some (Thread.create sampler_loop t)

let stop t =
  match t.sampler with
  | None -> ()
  | Some thread ->
      Atomic.set t.stop_flag true;
      Thread.join thread;
      t.sampler <- None

(* ------------------------------------------------------------------ *)
(* The window over the newest snapshot pair                            *)

type window = {
  dt_s : float;
  queries : int;
  shed : int;
  qps : float;
  shed_rate : float;
  shard_fanout : int;
  shard_pruned : int;
  prune_rate : float;
  sketch_filtered : (string * int) list;
  sketch_filter_rate : float;
  latency_count : int;
  p50_s : float;
  p99_s : float;
}

let counter_total name samples =
  List.fold_left
    (fun acc s ->
      match s with
      | Metrics.Counter_sample { name = n; total; _ } when n = name ->
          acc + total
      | _ -> acc)
    0 samples

let counter_by_label name label samples =
  List.filter_map
    (function
      | Metrics.Counter_sample { name = n; labels; total; _ } when n = name ->
          Option.map (fun v -> (v, total)) (List.assoc_opt label labels)
      | _ -> None)
    samples

let histogram_buckets name samples =
  List.fold_left
    (fun acc s ->
      match s with
      | Metrics.Histogram_sample { name = n; buckets; _ } when n = name -> (
          match acc with
          | None -> Some (Array.copy buckets)
          | Some merged ->
              Array.iteri (fun i b -> merged.(i) <- merged.(i) + b) buckets;
              Some merged)
      | _ -> acc)
    None samples

(* Counters are monotone, so a negative delta only appears after a
   registry reset between samples; clamp rather than report it. *)
let delta a b = max 0 (b - a)

let ratio num den = if den <= 0 then 0. else float_of_int num /. float_of_int den

(* The q-quantile of the windowed timer observations, read off the
   log-scale bucket deltas: the upper bound of the first bucket whose
   cumulative delta count reaches q of the window's total. *)
let bucket_quantile ~before ~after q =
  match (before, after) with
  | Some b, Some a when Array.length b = Array.length a ->
      let n = Array.length a in
      let deltas = Array.init n (fun i -> delta b.(i) a.(i)) in
      let total = Array.fold_left ( + ) 0 deltas in
      if total = 0 then (0, 0.)
      else begin
        let target = q *. float_of_int total in
        let quantile = ref (Metrics.bucket_upper (n - 1)) in
        let cum = ref 0 in
        (try
           for i = 0 to n - 1 do
             cum := !cum + deltas.(i);
             if float_of_int !cum >= target then begin
               quantile := Metrics.bucket_upper i;
               raise Exit
             end
           done
         with Exit -> ());
        (total, !quantile)
      end
  | _ -> (0, 0.)

let window t =
  Mutex.lock t.mutex;
  let snaps = t.snaps in
  Mutex.unlock t.mutex;
  match snaps with
  | newest :: prev :: _ ->
      let c name = delta (counter_total name prev.samples)
          (counter_total name newest.samples)
      in
      let dt_s = newest.at_s -. prev.at_s in
      let queries = c "simq_serve_queries_total" in
      let shed = c "simq_serve_shed_total" in
      let shard_fanout = c "simq_shard_fanout_total" in
      let shard_pruned = c "simq_shard_pruned_total" in
      let filtered_before =
        counter_by_label "simq_sketch_filtered_total" "level" prev.samples
      in
      let sketch_filtered =
        List.map
          (fun (level, total) ->
            let base =
              Option.value ~default:0 (List.assoc_opt level filtered_before)
            in
            (level, delta base total))
          (counter_by_label "simq_sketch_filtered_total" "level" newest.samples)
      in
      let filtered_sum =
        List.fold_left (fun acc (_, d) -> acc + d) 0 sketch_filtered
      in
      let candidates = c "simq_kindex_candidates_total" in
      let latency_count, p50_s =
        bucket_quantile
          ~before:(histogram_buckets "simq_timer_seconds" prev.samples)
          ~after:(histogram_buckets "simq_timer_seconds" newest.samples)
          0.50
      in
      let _, p99_s =
        bucket_quantile
          ~before:(histogram_buckets "simq_timer_seconds" prev.samples)
          ~after:(histogram_buckets "simq_timer_seconds" newest.samples)
          0.99
      in
      Some
        {
          dt_s;
          queries;
          shed;
          qps = (if dt_s > 0. then float_of_int queries /. dt_s else 0.);
          shed_rate = ratio shed (queries + shed);
          shard_fanout;
          shard_pruned;
          prune_rate = ratio shard_pruned (shard_fanout + shard_pruned);
          sketch_filtered;
          sketch_filter_rate = ratio filtered_sum candidates;
          latency_count;
          p50_s;
          p99_s;
        }
  | _ -> None

let window_json w =
  Json.Obj
    [
      ("dt_s", Json.Num w.dt_s);
      ("queries", Json.Num (float_of_int w.queries));
      ("shed", Json.Num (float_of_int w.shed));
      ("qps", Json.Num w.qps);
      ("shed_rate", Json.Num w.shed_rate);
      ( "shard",
        Json.Obj
          [
            ("fanout", Json.Num (float_of_int w.shard_fanout));
            ("pruned", Json.Num (float_of_int w.shard_pruned));
            ("prune_rate", Json.Num w.prune_rate);
          ] );
      ( "sketch",
        Json.Obj
          [
            ( "filtered",
              Json.Obj
                (List.map
                   (fun (level, d) -> (level, Json.Num (float_of_int d)))
                   w.sketch_filtered) );
            ("filter_rate", Json.Num w.sketch_filter_rate);
          ] );
      ( "latency",
        Json.Obj
          [
            ("count", Json.Num (float_of_int w.latency_count));
            ("p50_ms", Json.Num (w.p50_s *. 1000.));
            ("p99_ms", Json.Num (w.p99_s *. 1000.));
          ] );
    ]

let to_json t =
  Json.Obj
    [
      ("event", Json.Str "simq.history");
      ("v", Json.Num 1.);
      ("samples", Json.Num (float_of_int (length t)));
      ("capacity", Json.Num (float_of_int t.capacity));
      ("interval_ms", Json.Num (t.interval_s *. 1000.));
      ( "window",
        match window t with None -> Json.Null | Some w -> window_json w );
    ]

let document t =
  sample t;
  Json.to_string (to_json t)
