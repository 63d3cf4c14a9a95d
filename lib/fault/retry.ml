let m_retries =
  Simq_obs.Metrics.counter
    ~help:"Retries of transient faults by checked entry points"
    "simq_fault_retries_total"

let max_attempts = 3
let base_delay_s = 1e-3

let with_retries ?profile ?(budget = Budget.unlimited) f =
  (* Retries belong to the operator that started the loop, not to a
     node a failed attempt left open. *)
  let node = Simq_obs.Profile.current profile in
  let rec go attempt =
    (* Each attempt runs against its own fresh budget state. *)
    match f (Budget.state_opt budget) with
    | v -> Ok v
    | exception Budget.Exceeded e -> Error e
    | exception Injector.Transient_fault { site; _ } ->
      if attempt >= max_attempts then
        Error
          (Error.Io_failed { site = Injector.site_name site; attempts = attempt })
      else begin
        Simq_obs.Metrics.incr m_retries;
        Simq_obs.Profile.add_event node
          (Printf.sprintf "retry: attempt %d abandoned" attempt);
        Unix.sleepf (base_delay_s *. (2. ** float_of_int (attempt - 1)));
        go (attempt + 1)
      end
  in
  go 1
