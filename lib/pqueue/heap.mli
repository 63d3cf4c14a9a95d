(** A binary min-heap keyed by floats, used by the best-first searches
    (nearest neighbours, rewrite and similarity search).

    Entries order lexicographically by [(key, tie, insertion)]: among
    equal keys the smallest integer [tie] pops first, and entries equal
    in both pop in insertion order — the order of a stable sort on
    [(key, tie)]. Each entry also carries an integer [state] the heap
    only stores, so a caller can tell its kinds of entry apart without
    boxing them in a variant.

    Keys, ties, states and values sit in parallel arrays; pushing
    through a {!cell} and reading the top by {!top}/{!top_state}
    allocates nothing once the arrays have grown. *)

type 'a t

(** A caller-owned float cell. A float passed to or returned from a
    function not inlined at the call site is boxed; a key handed over
    in a cell is not. *)
type cell = { mutable key : float }

(** [cell ()] is a fresh cell holding [0.]. *)
val cell : unit -> cell

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

(** [push h key v] inserts [v] with priority [key], tie [0] and
    state [0]. *)
val push : 'a t -> float -> 'a -> unit

(** [push_cell h c ~tie ~state v] inserts [v] with priority
    [(c.key, tie)] and the given [state]. *)
val push_cell : 'a t -> cell -> tie:int -> state:int -> 'a -> unit

(** [top h], [top_state h] and [top_key h] are the value, state and key
    of the entry that orders first. Raise [Invalid_argument] when [h]
    is empty. *)
val top : 'a t -> 'a

val top_state : 'a t -> int
val top_key : 'a t -> float

(** [drop h] removes the entry that orders first. Raises
    [Invalid_argument] when [h] is empty. *)
val drop : 'a t -> unit

(** [pop_min h] removes and returns the key and value of the entry that
    orders first. *)
val pop_min : 'a t -> (float * 'a) option
