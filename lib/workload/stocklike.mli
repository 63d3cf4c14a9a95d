(** Stock-like synthetic series: the stand-in for the paper's real
    stock data (1067 series of 128 daily closes from
    [ftp.ai.mit.edu/pub/stocks/results/], no longer available).

    Prices follow a regime-switching geometric random walk: bull, bear
    and flat regimes with distinct drift/volatility, switching with a
    small daily probability. This clusters series the way real closing
    prices cluster (trends + volatility bursts), which is what the
    experiments' answer-set sizes depend on. *)

(** [generate state ~n] is one price series of length [n]; all values
    are positive. *)
val generate : Random.State.t -> n:int -> Simq_series.Series.t

(** [batch ~seed ~count ~n] is a reproducible market. *)
val batch : seed:int -> count:int -> n:int -> Simq_series.Series.t array

(** [correlated_pair state ~n ~rho] is two series driven by shocks with
    correlation [rho] ([rho = -1] gives mirror movements, the hedging
    scenario of Example 2.2). Raises [Invalid_argument] unless
    [-1 <= rho <= 1]. *)
val correlated_pair :
  Random.State.t -> n:int -> rho:float ->
  Simq_series.Series.t * Simq_series.Series.t
