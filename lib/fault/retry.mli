(** Bounded retry with exponential backoff, and the conversion of
    in-flight exceptions into typed errors. This is the boundary that
    guarantees checked query entry points never leak a raw fault or
    budget exception to the caller.

    The policy is fixed: {!max_attempts} attempts, a 1 ms delay before
    the second, doubling before each later one. *)

(** Attempts per query: 3. *)
val max_attempts : int

(** [with_retries ?profile ?budget f] runs [f] up to {!max_attempts}
    times, handing each attempt a fresh [Budget.state_opt budget]
    (default {!Budget.unlimited}, so [f] sees [None]) — the one place a
    query attempt's state is made. {!Injector.Transient_fault} triggers
    a retry after [1 ms * 2^(attempt-1)], adding the event
    ["retry: attempt N abandoned"] to the node of [profile] that was
    innermost when the call began ({!Simq_obs.Profile.current}), so
    each operator records its own retries; exhausting all attempts
    yields [Error (Io_failed _)]. {!Budget.Exceeded} is not retried — a
    blown budget fails the attempt immediately with its carried error.
    Any other exception propagates: it is a programming error, not a
    fault. *)
val with_retries :
  ?profile:Simq_obs.Profile.t ->
  ?budget:Budget.t ->
  (Budget.state option -> 'a) ->
  ('a, Error.t) result
