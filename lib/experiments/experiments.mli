(** The experiment suite: one function per figure/table of the
    evaluation (Section 5 of the companion implementation paper — see
    DESIGN.md for the provenance note), plus framework-level benchmarks
    for the components the theory paper introduces without measuring.

    Every function prints its table to stdout and returns the
    paper-vs-measured claims it checked. [fast] shrinks data sizes so
    the whole suite runs in seconds (used by tests and smoke runs). *)

type claim = Simq_report.Expectation.claim

(** Figure 8: time per range query vs sequence length; identity
    transformation vs no transformation. *)
val fig8 : fast:bool -> claim list

(** Figure 9: the same comparison vs number of sequences. *)
val fig9 : fast:bool -> claim list

(** Figure 10: index vs sequential scan, varying sequence length. *)
val fig10 : fast:bool -> claim list

(** Figure 11: index vs sequential scan, varying number of sequences. *)
val fig11 : fast:bool -> claim list

(** Figure 12: time per query vs answer-set size on stock-like data;
    locates the index/scan crossover. *)
val fig12 : fast:bool -> claim list

(** Table 1: the spatial self-join under T_mavg20 by methods a–d. *)
val table1 : fast:bool -> claim list

(** Framework benchmark: generalised edit-distance DP scaling. *)
val edit_dp : fast:bool -> claim list

(** Framework benchmark: Eq. 10 similarity search scaling with the
    transformation set and cost bound. *)
val eq10 : fast:bool -> claim list

(** Framework benchmark: VP-tree vs linear scan distance computations. *)
val vptree : fast:bool -> claim list

(** Ablation: how many DFT coefficients the index should keep. *)
val ablation_k : fast:bool -> claim list

(** Ablation: polar vs rectangular coordinate representation. *)
val ablation_repr : fast:bool -> claim list

(** Ablation: R* heuristics vs Guttman's classic R-tree vs STR bulk
    loading. *)
val ablation_rtree : fast:bool -> claim list

(** Ablation: subsequence index layout — point-per-window vs FRM94 MBR
    trails. *)
val ablation_trails : fast:bool -> claim list

(** [all ~fast] runs everything in order and prints the claim summary. *)
val all : fast:bool -> unit

(** [run ~fast name] runs one experiment by name
    ("fig8" … "table1", "edit_dp", "eq10", "vptree",
    "ablation_k", "ablation_repr", "ablation_rtree",
    "ablation_trails", "all").
    Unknown names return [Error] with the available names. *)
val run : fast:bool -> string -> (unit, string) result
