type policy = { max_attempts : int; base_delay_s : float; backoff : float }

let m_retries =
  Simq_obs.Metrics.counter
    ~help:"Retries of transient faults by checked entry points"
    "simq_fault_retries_total"

let policy ?(max_attempts = 3) ?(base_delay_s = 1e-3) ?(backoff = 2.) () =
  if max_attempts < 1 then invalid_arg "Retry.policy: max_attempts must be >= 1";
  if not (base_delay_s >= 0.) then
    invalid_arg "Retry.policy: base_delay_s must be >= 0";
  if not (backoff >= 1.) then invalid_arg "Retry.policy: backoff must be >= 1";
  { max_attempts; base_delay_s; backoff }

let default = policy ()
let none = policy ~max_attempts:1 ~base_delay_s:0. ()

let with_retries ?(policy = default) ?on_retry ?(budget = Budget.unlimited) f =
  let rec go attempt =
    (* Each attempt runs against its own fresh budget state. *)
    match f (Budget.state_opt budget) with
    | v -> Ok v
    | exception Budget.Exceeded e -> Error e
    | exception Injector.Transient_fault { site; _ } ->
      if attempt >= policy.max_attempts then
        Error
          (Error.Io_failed { site = Injector.site_name site; attempts = attempt })
      else begin
        Simq_obs.Metrics.incr m_retries;
        (match on_retry with Some g -> g ~attempt | None -> ());
        let delay =
          policy.base_delay_s *. (policy.backoff ** float_of_int (attempt - 1))
        in
        if delay > 0. then Unix.sleepf delay;
        go (attempt + 1)
      end
  in
  go 1
