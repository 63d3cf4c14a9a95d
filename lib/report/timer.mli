(** Timing for the experiment harness, on the observability layer's
    monotonic clock ({!Simq_obs.Clock}). Every measured interval is
    also observed into the [simq_timer_seconds] histogram of
    {!Simq_obs.Metrics}, so tables, CSV side channels and the
    [--metrics] exposition all report the same readings. *)

(** [time f] runs [f ()] once, returning its result and elapsed
    seconds. *)
val time : (unit -> 'a) -> 'a * float

(** [observe seconds] records an interval measured elsewhere (a query's
    own execution time) into [simq_timer_seconds], as {!time} does. *)
val observe : float -> unit

(** [time_median ~runs f] runs [f] [runs] times and returns the last
    result with the median elapsed seconds — robust against scheduler
    noise. [runs] must be positive. *)
val time_median : runs:int -> (unit -> 'a) -> 'a * float

(** [pp_seconds ppf s] prints a human-readable duration
    ([852us], [12.3ms], [2:31.217]). *)
val pp_seconds : Format.formatter -> float -> unit
