let m_tasks =
  Simq_obs.Metrics.counter ~help:"Chunks executed by the domain pool"
    "simq_pool_tasks_total"

(* The chunking rule: [chunks_per_domain] chunks per domain, so one
   slow chunk holds a domain up for a small share of the job, but never
   a chunk below [min_chunk] elements, where claiming and finishing a
   chunk would outweigh its work — smaller inputs are one chunk and run
   inline. *)
let chunks_per_domain = 8
let min_chunk = 64

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

(* Run [total] chunks, caller participating; returns when every chunk
   has completed. [run] must not raise. *)
let run_chunks t ~total run =
  let run i =
    run i;
    Simq_obs.Metrics.incr m_tasks
  in
  if total > 0 then
    if t.size <= 1 || t.stopped || total = 1 then
      for i = 0 to total - 1 do
        run i
      done
    else begin
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
      Mutex.unlock t.lock
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

let chunk_size pool n =
  let target = chunks_per_domain * pool.size in
  max min_chunk ((n + target - 1) / target)

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
      | None -> chunk_size pool n
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
      (* With one element per chunk, chunk 0 is element 0 alone, which
         just ran: it is counted here and never submitted. *)
      let first = if chunk = 1 then 1 else 0 in
      if first = 1 then Simq_obs.Metrics.incr m_tasks;
      run_chunks pool ~total:(chunks - first) (fun c ->
          let c = c + first in
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
