(** Paper-vs-measured bookkeeping: every experiment declares the shape
    the paper reports and records what this reproduction measured, and
    the harness prints a verdict per claim. *)

type verdict = Holds | Partial | Fails

type claim = {
  experiment : string;  (** e.g. "Table 1" or "Figure 10" *)
  expectation : string;  (** the paper's qualitative claim *)
  measured : string;  (** what we observed *)
  verdict : verdict;
}

(** [check ~experiment ~expectation ~measured holds] builds a claim from
    a boolean test. *)
val check :
  experiment:string -> expectation:string -> measured:string -> bool -> claim

(** [partial ~experiment ~expectation ~measured] marks a claim that
    holds in direction but not in magnitude. *)
val partial :
  experiment:string -> expectation:string -> measured:string -> claim

(** [print_summary claims] prints one line per claim plus a tally. *)
val print_summary : claim list -> unit
