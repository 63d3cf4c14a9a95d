let m_injected =
  Simq_obs.Metrics.counter
    ~help:"Transient faults raised by budget fault plans"
    "simq_fault_injected_total"

type site = Page_read | Node_access

let site_name = function Page_read -> "page_read" | Node_access -> "node_access"

exception Transient_fault of { site : site; ordinal : int }

type spec = { probability : float; schedule : int list }

let transient ?(probability = 0.) ?(schedule = []) () =
  if not (probability >= 0. && probability <= 1.) then
    invalid_arg "Injector.transient: probability must be in [0, 1]";
  if List.exists (fun n -> n < 1) schedule then
    invalid_arg "Injector.transient: schedule ordinals are 1-based";
  { probability; schedule }

let never = transient ()

type point = {
  probability : float;
  scheduled : (int, unit) Hashtbl.t;
  rng : Random.State.t;
  mutable ordinal : int;
  mutable faults : int;
}

type t = { lock : Mutex.t; page_reads : point; node_accesses : point }

let create ?(page_reads = never) ?(node_accesses = never) ~seed () =
  let point offset (spec : spec) =
    let scheduled = Hashtbl.create 8 in
    List.iter (fun n -> Hashtbl.replace scheduled n ()) spec.schedule;
    {
      probability = spec.probability;
      scheduled;
      rng = Random.State.make [| seed; offset |];
      ordinal = 0;
      faults = 0;
    }
  in
  {
    lock = Mutex.create ();
    page_reads = point 1 page_reads;
    node_accesses = point 2 node_accesses;
  }

let point t = function
  | Page_read -> t.page_reads
  | Node_access -> t.node_accesses

let check t site =
  let p = point t site in
  Mutex.lock t.lock;
  p.ordinal <- p.ordinal + 1;
  let ordinal = p.ordinal in
  let fault =
    Hashtbl.mem p.scheduled ordinal
    || (p.probability > 0. && Random.State.float p.rng 1. < p.probability)
  in
  if fault then p.faults <- p.faults + 1;
  Mutex.unlock t.lock;
  if fault then begin
    Simq_obs.Metrics.incr m_injected;
    raise (Transient_fault { site; ordinal })
  end

let accesses t site = (point t site).ordinal
let faults t site = (point t site).faults
