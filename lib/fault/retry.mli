(** Bounded retry with exponential backoff, and the conversion of
    in-flight exceptions into typed errors. This is the boundary that
    guarantees checked query entry points never leak a raw fault or
    budget exception to the caller. *)

type policy = { max_attempts : int; base_delay_s : float; backoff : float }

(** [policy ()] defaults to 3 attempts, 1 ms base delay, doubling.
    Raises [Invalid_argument] if [max_attempts < 1], [base_delay_s < 0]
    or [backoff < 1]. *)
val policy :
  ?max_attempts:int -> ?base_delay_s:float -> ?backoff:float -> unit -> policy

(** 3 attempts, 1 ms base delay, backoff 2. *)
val default : policy

(** Single attempt, no backoff. *)
val none : policy

(** [with_retries ?policy ?on_retry ?budget f] runs [f] up to
    [policy.max_attempts] times, handing each attempt a fresh
    [Budget.state_opt budget] (default {!Budget.unlimited}, so [f]
    sees [None]) — the one place a query attempt's state is made.
    {!Injector.Transient_fault} triggers a retry (after
    [base_delay_s * backoff^(attempt-1)] seconds, reporting the
    abandoned attempt number to [on_retry]); exhausting all attempts
    yields [Error (Io_failed _)]. {!Budget.Exceeded} is not retried — a
    blown budget fails the attempt immediately with its carried error.
    Any other exception propagates: it is a programming error, not a
    fault. *)
val with_retries :
  ?policy:policy ->
  ?on_retry:(attempt:int -> unit) ->
  ?budget:Budget.t ->
  (Budget.state option -> 'a) ->
  ('a, Error.t) result
