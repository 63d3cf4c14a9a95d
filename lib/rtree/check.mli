(** Structural invariant checking for R*-trees; used by the test suite
    after randomised insertion workloads and bulk loads. *)

type violation = {
  where : string;
  message : string;
}

(** [violations t] inspects the whole tree and reports every violated
    invariant:
    - every child MBR is contained in its parent's MBR;
    - every node's MBR equals/contains the union of its entries;
    - all leaves are at depth 0 and levels decrease by one per step;
    - every non-root node holds between [min_fill] and [max_fill]
      entries; the root holds at most [max_fill];
    - [size t] equals the number of data entries reachable. *)
val violations : 'a Rstar.t -> violation list

(** [is_valid t] is [violations t = []]. *)
val is_valid : 'a Rstar.t -> bool

val pp_violation : Format.formatter -> violation -> unit
