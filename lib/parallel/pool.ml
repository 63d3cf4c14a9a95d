let m_tasks =
  Simq_obs.Metrics.counter ~help:"Chunks executed by the domain pool"
    "simq_pool_tasks_total"

let m_busy =
  Simq_obs.Metrics.histogram ~help:"Per-chunk busy time in seconds"
    "simq_pool_busy_seconds"

let m_imbalance =
  Simq_obs.Metrics.gauge
    ~help:"Last job's max/mean per-domain busy time (1 = perfectly balanced)"
    "simq_pool_imbalance_ratio"

(* Per-domain busy-time slots for one job, indexed like the metrics
   shards; each participating domain only writes its own slot. *)
let busy_slots = 64

(* --- adaptive chunking knobs --------------------------------------------- *)

(* A chunk never holds fewer elements than this: below the quantum the
   scheduling overhead (claim, finish bookkeeping, wake-ups) dominates
   the work, so tiny inputs collapse to one chunk and run inline. *)
let min_chunk_quantum = 64

(* Fresh pools start coarse — [coarse_chunks_per_domain] chunks per
   domain — and split finer only when a finished job's measured
   per-domain busy times are imbalanced, up to
   [max_chunks_per_domain]. *)
let coarse_chunks_per_domain = 2
let max_chunks_per_domain = 16

(* Controller thresholds on the max/mean per-domain busy-time ratio of
   the job that just finished: above [imbalance_split_ratio] the next
   job gets twice as many chunks per domain; below
   [imbalance_coarsen_ratio] (near-perfect balance) it gets half. *)
let imbalance_split_ratio = 1.25
let imbalance_coarsen_ratio = 1.05

(* A job is one parallel operation: [total] chunks, claimed one at a
   time through the atomic [next] counter by every domain working on it
   (the submitter always participates, workers join when idle). [run]
   must not raise — the public operations wrap chunk bodies and park
   exceptions so they can be re-raised in the caller in chunk order. *)
type job = {
  next : int Atomic.t;  (* next unclaimed chunk *)
  total : int;
  run : int -> unit;
  fin_mutex : Mutex.t;
  fin_cond : Condition.t;
  mutable remaining : int;  (* chunks not yet completed; fin_mutex *)
}

type t = {
  size : int;
  lock : Mutex.t;  (* guards [jobs], [stopped], [workers] *)
  work_available : Condition.t;
  mutable jobs : job list;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
  split : int Atomic.t;
      (* current chunks-per-domain target of the adaptive controller;
         only ever between [coarse_chunks_per_domain] and
         [max_chunks_per_domain] *)
}

let domains t = t.size

let execute_job job =
  let rec loop () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.total then begin
      job.run i;
      Mutex.lock job.fin_mutex;
      job.remaining <- job.remaining - 1;
      if job.remaining = 0 then Condition.broadcast job.fin_cond;
      Mutex.unlock job.fin_mutex;
      loop ()
    end
  in
  loop ()

(* With [t.lock] held: drop exhausted jobs, return one with work left. *)
let find_job t =
  let active = List.filter (fun j -> Atomic.get j.next < j.total) t.jobs in
  t.jobs <- active;
  match active with [] -> None | j :: _ -> Some j

let rec worker t =
  Mutex.lock t.lock;
  let rec await () =
    if t.stopped then None
    else
      match find_job t with
      | Some j -> Some j
      | None ->
        Condition.wait t.work_available t.lock;
        await ()
  in
  let job = await () in
  Mutex.unlock t.lock;
  match job with
  | None -> ()
  | Some j ->
    execute_job j;
    worker t

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      size = domains;
      lock = Mutex.create ();
      work_available = Condition.create ();
      jobs = [];
      stopped = false;
      workers = [];
      split = Atomic.make coarse_chunks_per_domain;
    }
  in
  if domains > 1 then
    t.workers <-
      List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let sequential = create ~domains:1

let shutdown t =
  Mutex.lock t.lock;
  t.stopped <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

(* Wrap a chunk body with busy-time accounting; [busy] is the
   per-domain slot array of one job (absent on the inline path, where
   only the metric families are fed). Slot timing always runs on the
   parallel branch — it feeds the adaptive controller — at the cost of
   two clock reads per chunk, negligible against a quantum of work. *)
let instrument_run ~metrics run busy i =
  let t0 = Simq_obs.Clock.now_ns () in
  run i;
  let dt = Simq_obs.Clock.elapsed_s t0 in
  if metrics then begin
    Simq_obs.Metrics.incr m_tasks;
    Simq_obs.Metrics.observe m_busy dt
  end;
  match busy with
  | None -> ()
  | Some slots ->
    let s = (Domain.self () :> int) land (busy_slots - 1) in
    slots.(s) <- slots.(s) +. dt

(* Digest the per-domain busy times of the job just finished: publish
   the max/mean ratio (when metrics are on) and steer the adaptive
   split — observed imbalance means the next job should cut finer
   chunks, near-perfect balance that coarser ones suffice. Chunk-size
   choices never change answers (all merges are chunk-order
   deterministic), so the controller is free to react to timing. *)
let digest_imbalance t slots =
  let mx = ref 0. and sum = ref 0. and active = ref 0 in
  Array.iter
    (fun v ->
      if v > 0. then begin
        if v > !mx then mx := v;
        sum := !sum +. v;
        incr active
      end)
    slots;
  if !active > 0 && !sum > 0. then begin
    let ratio = !mx /. (!sum /. float_of_int !active) in
    if Simq_obs.Metrics.on () then
      Simq_obs.Metrics.set_gauge m_imbalance ratio;
    let split = Atomic.get t.split in
    if ratio > imbalance_split_ratio then
      Atomic.set t.split (min (split * 2) max_chunks_per_domain)
    else if ratio < imbalance_coarsen_ratio then
      Atomic.set t.split (max (split / 2) coarse_chunks_per_domain)
  end

(* Run [total] chunks, caller participating; returns when every chunk
   has completed. [run] must not raise. *)
let run_chunks t ~total run =
  if total > 0 then
    if t.size <= 1 || t.stopped || total = 1 then begin
      let run =
        if Simq_obs.Metrics.on () then instrument_run ~metrics:true run None
        else run
      in
      for i = 0 to total - 1 do
        run i
      done
    end
    else begin
      let busy = Array.make busy_slots 0. in
      let run = instrument_run ~metrics:(Simq_obs.Metrics.on ()) run (Some busy) in
      let job =
        {
          next = Atomic.make 0;
          total;
          run;
          fin_mutex = Mutex.create ();
          fin_cond = Condition.create ();
          remaining = total;
        }
      in
      Mutex.lock t.lock;
      t.jobs <- t.jobs @ [ job ];
      Condition.broadcast t.work_available;
      Mutex.unlock t.lock;
      execute_job job;
      Mutex.lock job.fin_mutex;
      while job.remaining > 0 do
        Condition.wait job.fin_cond job.fin_mutex
      done;
      Mutex.unlock job.fin_mutex;
      Mutex.lock t.lock;
      t.jobs <- List.filter (fun j -> j != job) t.jobs;
      Mutex.unlock t.lock;
      digest_imbalance t busy
    end

(* --- the default pool ---------------------------------------------------- *)

let default_lock = Mutex.create ()
let default_override = ref None
let default_pool = ref None

(* Warn once per distinct garbage value, not per call: default_domains
   runs on every default-pool resolution. Guarded by default_lock. *)
let env_warned = ref None

let env_domains () =
  match Sys.getenv_opt "SIMQ_DOMAINS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ ->
      if !env_warned <> Some s then begin
        env_warned := Some s;
        Printf.eprintf
          "simq: warning: ignoring invalid SIMQ_DOMAINS=%S (expected an \
           integer >= 1); using the default domain count\n\
           %!"
          s
      end;
      None)

let default_domains_locked () =
  match !default_override with
  | Some n -> n
  | None -> (
    match env_domains () with
    | Some n -> n
    | None -> max 1 (Domain.recommended_domain_count ()))

let default_domains () =
  Mutex.lock default_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock default_lock)
    default_domains_locked

let set_default_domains n =
  if n < 1 then invalid_arg "Pool.set_default_domains: need >= 1";
  Mutex.lock default_lock;
  default_override := Some n;
  Mutex.unlock default_lock

let default () =
  Mutex.lock default_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock default_lock)
    (fun () ->
      let wanted = default_domains_locked () in
      match !default_pool with
      | Some p when p.size = wanted && not p.stopped -> p
      | other ->
        Option.iter shutdown other;
        let p = create ~domains:wanted in
        default_pool := Some p;
        p)

(* --- operations ---------------------------------------------------------- *)

let resolve = function Some pool -> pool | None -> default ()

(* The controller's current chunk size for an [n]-element operation:
   [split * size] chunks, but never a chunk below the minimum-work
   quantum — so an input smaller than the quantum is one chunk and
   runs inline, whatever the pool size. *)
let adaptive_chunk pool n =
  if n <= 0 then 1
  else begin
    let target = Atomic.get pool.split * pool.size in
    max min_chunk_quantum ((n + target - 1) / target)
  end

let default_chunk = adaptive_chunk

let check_chunk chunk =
  if chunk < 1 then invalid_arg "Pool: chunk must be >= 1"

(* Re-raise the error of the lowest-indexed failing chunk — what a
   sequential left-to-right run would have raised first. *)
let raise_first_error errors =
  Array.iter (function Some e -> raise e | None -> ()) errors

let map_array ?pool ?chunk f arr =
  let pool = resolve pool in
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let chunk =
      match chunk with
      | Some c ->
        check_chunk c;
        c
      | None -> default_chunk pool n
    in
    let chunks = (n + chunk - 1) / chunk in
    if pool.size <= 1 || chunks = 1 then Array.map f arr
    else begin
      (* Zero-copy merge: element 0 is computed in the caller (as a
         sequential run would first), seeds the pre-sized result
         buffer, and every chunk writes its slice in place — no
         Option boxing, no final copy. *)
      let results = Array.make n (f arr.(0)) in
      let errors = Array.make chunks None in
      run_chunks pool ~total:chunks (fun c ->
          let lo = max 1 (c * chunk) and hi = min n ((c + 1) * chunk) in
          try
            for i = lo to hi - 1 do
              results.(i) <- f arr.(i)
            done
          with e -> errors.(c) <- Some e);
      raise_first_error errors;
      results
    end
  end

let map_chunks ?pool ~chunk ~n f =
  let pool = resolve pool in
  if n <= 0 then []
  else begin
    check_chunk chunk;
    let chunks = (n + chunk - 1) / chunk in
    let results = Array.make chunks None in
    let errors = Array.make chunks None in
    run_chunks pool ~total:chunks (fun c ->
        let lo = c * chunk and hi = min n ((c + 1) * chunk) in
        try results.(c) <- Some (f ~lo ~hi) with e -> errors.(c) <- Some e);
    raise_first_error errors;
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) results)
  end

let chunked_iter ?pool ~chunk ~n f =
  let units = map_chunks ?pool ~chunk ~n f in
  ignore (units : unit list)

let reduce ?pool ?chunk ~map ~combine init arr =
  let pool = resolve pool in
  let n = Array.length arr in
  if n = 0 then init
  else begin
    let chunk =
      match chunk with
      | Some c ->
        check_chunk c;
        c
      | None -> default_chunk pool n
    in
    (* Pre-sized partials buffer written in place by each chunk, folded
       in chunk order — no intermediate list. Chunk grouping is the
       same at every domain count for a fixed [chunk], so even
       non-associative combines stay deterministic. *)
    let chunks = (n + chunk - 1) / chunk in
    let partials = Array.make chunks None in
    let errors = Array.make chunks None in
    run_chunks pool ~total:chunks (fun c ->
        let lo = c * chunk and hi = min n ((c + 1) * chunk) in
        try
          let acc = ref (map arr.(lo)) in
          for i = lo + 1 to hi - 1 do
            acc := combine !acc (map arr.(i))
          done;
          partials.(c) <- Some !acc
        with e -> errors.(c) <- Some e);
    raise_first_error errors;
    Array.fold_left
      (fun acc p ->
        match p with Some v -> combine acc v | None -> assert false)
      init partials
  end
