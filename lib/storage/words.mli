(** Files of little-endian 64-bit words — the relation file
    ({!Relation}) and the prepared image ({!Simq_tsindex.Image}) — and
    the one verification kernel both are checked with.

    {b The sum.} A file's trailer is the sum of every word before it:
    four lanes, word [c] of the stream going to lane [c mod 4], each
    lane stepped by [mix h w = ((h ⊕ f(w)) rotl 27) · m2] with
    [f(w) = (w ⊕ (w >> 29)) · m1] for odd constants [m1], [m2]; then
    the four lanes are folded in lane order by the same [mix] from a
    fixed seed, and the word count last. [f] is a bijection (an
    xorshift, then an odd multiply), and for a fixed word the step is
    a bijection of the state (an xor, a rotation, an odd multiply), so
    within a lane changing any one word changes the lane's final state;
    the fold is again a bijection of each lane's state in turn, so it
    changes the sum. The multiplies and the rotation spread every bit
    of a word over the state, so structured changes (a negated series:
    its words' sign bits) do not cancel. The kernel is C, four lanes
    wide, and allocates nothing; it checks in the same pass that every
    word it reads is a finite double when asked. *)

(** A word buffer: float64 doubles, whose bits are the file's words. A
    mapped file ({!Unix.map_file}) or a buffer on the C heap. *)
type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** A running sum. *)
type sum

val create : unit -> sum

(** [absorb s buf ~pos ~len] adds words [pos .. pos+len-1] of [buf]
    to [s] and tells whether every one is a finite double. Raises
    [Invalid_argument] when the range falls outside [buf]. *)
val absorb : sum -> buffer -> pos:int -> len:int -> bool

(** [value s] is the sum of every word absorbed so far. *)
val value : sum -> int64

(** [get buf i] is word [i] of [buf], its bits. *)
val get : buffer -> int -> int64

(** [string buf ~pos ~len] is the [len] bytes of [buf] from byte
    [pos]. Raises [Invalid_argument] when they fall outside [buf]. *)
val string : buffer -> pos:int -> len:int -> string

(** [padded len] is the number of words [len] bytes take. *)
val padded : int -> int

(** A writer: words to a channel (or nowhere, to take the sum alone),
    through one buffer of bytes, summed as they go. *)
type writer

val writer : out_channel option -> writer
val word : writer -> int64 -> unit
val int : writer -> int -> unit
val float : writer -> float -> unit

(** [words w buf ~pos ~len] writes words [pos .. pos+len-1] of [buf],
    copied as they are. *)
val words : writer -> buffer -> pos:int -> len:int -> unit

(** [bytes w s] writes the bytes of [s], then zero bytes up to a whole
    word ({!padded}). *)
val bytes : writer -> string -> unit

(** [finish w] writes the trailer — the sum of every word written
    before it — and returns it. *)
val finish : writer -> int64
