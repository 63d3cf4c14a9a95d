let m_exhausted =
  Simq_obs.Metrics.counter
    ~help:"Budget limit crossings latched (one per failed attempt)"
    "simq_fault_budget_exhausted_total"

type t = {
  deadline_s : float;
  max_page_reads : int;
  max_comparisons : int;
  max_node_accesses : int;
  faults : Injector.t option;
}

let unlimited =
  {
    deadline_s = infinity;
    max_page_reads = max_int;
    max_comparisons = max_int;
    max_node_accesses = max_int;
    faults = None;
  }

let create ?(deadline_s = infinity) ?(max_page_reads = max_int)
    ?(max_comparisons = max_int) ?(max_node_accesses = max_int) ?faults () =
  if not (deadline_s >= 0.) then
    invalid_arg "Budget.create: deadline_s must be >= 0";
  if max_page_reads < 0 || max_comparisons < 0 || max_node_accesses < 0 then
    invalid_arg "Budget.create: limits must be >= 0";
  { deadline_s; max_page_reads; max_comparisons; max_node_accesses; faults }

let limit b resource =
  let cap n = if n = max_int then None else Some n in
  match (resource : Error.resource) with
  | Error.Wall_clock | Error.In_flight -> None
  | Error.Page_reads -> cap b.max_page_reads
  | Error.Comparisons -> cap b.max_comparisons
  | Error.Node_accesses -> cap b.max_node_accesses

let deadline b = if b.deadline_s = infinity then None else Some b.deadline_s

let is_unlimited b =
  b.deadline_s = infinity
  && b.max_page_reads = max_int
  && b.max_comparisons = max_int
  && b.max_node_accesses = max_int

type state = {
  limits : t;
  started_s : float;
  cancelled : Error.t option Atomic.t;
  page_reads : int Atomic.t;
  comparisons : int Atomic.t;
  node_accesses : int Atomic.t;
}

exception Exceeded of Error.t

let state_opt limits =
  if is_unlimited limits && Option.is_none limits.faults then None
  else
    Some
      {
        limits;
        started_s =
          (if limits.deadline_s = infinity then 0. else Unix.gettimeofday ());
        cancelled = Atomic.make None;
        page_reads = Atomic.make 0;
        comparisons = Atomic.make 0;
        node_accesses = Atomic.make 0;
      }

(* The first crossing wins the CAS; later chargers (other domains) raise
   that same error, so one query reports one cause. *)
let fail s err =
  if Atomic.compare_and_set s.cancelled None (Some err) then
    Simq_obs.Metrics.incr m_exhausted;
  let e = match Atomic.get s.cancelled with Some e -> e | None -> err in
  raise (Exceeded e)

let check s =
  (match Atomic.get s.cancelled with
  | Some e -> raise (Exceeded e)
  | None -> ());
  if s.limits.deadline_s < infinity then begin
    let elapsed = Unix.gettimeofday () -. s.started_s in
    if elapsed > s.limits.deadline_s then
      fail s
        (Error.Timeout { elapsed_s = elapsed; deadline_s = s.limits.deadline_s })
  end

let charge counter limit resource s n =
  if limit < max_int then begin
    let spent = Atomic.fetch_and_add counter n + n in
    if spent > limit then
      fail s (Error.Budget_exceeded { resource; spent; limit })
  end

(* Every guarded access runs the same three steps, in this order: the
   attempt's fault plan may fail the access, a cancelled or expired
   attempt stops, and the access is charged. *)
let fault s site =
  match s.limits.faults with None -> () | Some f -> Injector.check f site

let node_access = function
  | None -> ()
  | Some s ->
    fault s Injector.Node_access;
    check s;
    charge s.node_accesses s.limits.max_node_accesses Error.Node_accesses s 1

let page_read = function
  | None -> ()
  | Some s ->
    fault s Injector.Page_read;
    check s;
    charge s.page_reads s.limits.max_page_reads Error.Page_reads s 1

let comparisons bstate n =
  match bstate with
  | None -> ()
  | Some s ->
    if n < 0 then invalid_arg "Budget.comparisons: negative charge";
    check s;
    if n > 0 then
      charge s.comparisons s.limits.max_comparisons Error.Comparisons s n

let spent s = function
  | Error.Wall_clock | Error.In_flight -> 0
  | Error.Page_reads -> Atomic.get s.page_reads
  | Error.Comparisons -> Atomic.get s.comparisons
  | Error.Node_accesses -> Atomic.get s.node_accesses
