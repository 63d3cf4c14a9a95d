(** Relations of time sequences. The paper treats relations as unary —
    sets of sequences — “in practice of course they may have other
    attributes”; tuples here carry an id and a symbolic name (ticker,
    sensor, …) next to the data.

    Tuples are laid out on fixed-size logical pages in insertion order;
    scans and point lookups account their page traffic through an LRU
    buffer pool, so sequential-scan baselines report page reads the way
    the paper reports disk accesses.

    {b The rows.} A relation's series are one float64 word buffer
    ({!Words.buffer}), row after row in id order. A loaded relation's
    buffer is a view of its file's private mapping, read in place: a
    load decodes no series. A relation built by {!create}, {!insert}
    or {!of_series} builds its buffer on the C heap. A series is
    copied out only when it is asked for ({!get}, {!series}). Series
    are copied out of the rows bit for bit, so every reader sees the
    doubles that were inserted.

    {b The file} ({!save}, {!load}) is a flat sequence of
    little-endian 64-bit words (ints as themselves, floats as their
    IEEE bits; no [Marshal]):
    + the header: the magic ["SIMQREL\001"], the format version, the
      count, the series length [n] (0 for an empty relation), and the
      relation name's length in bytes, then its bytes, zero-padded to
      a whole word;
    + the rows: [count·n] floats, series [0] first;
    + the name table: [count + 1] byte offsets (the first 0, the last
      the table's length), then the names' bytes back to back,
      zero-padded to a whole word;
    + the trailer: the {!Words} sum of every word before it.

    {!load} maps the file once and checks it in one pass of the
    {!Words} kernel: the trailer must be the sum of every word, and
    every row word a finite double. A file that fails anything —
    another magic or version, a size that does not fit its header, a
    trailer that does not match, a non-finite value — raises
    {!Invalid_file}, never a crash: a flipped byte anywhere changes
    the sum. A [Marshal] snapshot of an older simq is such a file: it
    is refused as "not a relation file". The file is read on
    little-endian hosts only.

    {b The mapping} lives as long as the relation or any {!sub} view
    of it. {!save} replaces a file by renaming a complete new one over
    it, so a process holding a mapping keeps the old inode; writing a
    relation file in place under a running reader is out of contract,
    as for the prepared image. *)

type tuple = {
  id : int;           (** dense, assigned at insertion, starting from 0 *)
  name : string;
  data : Simq_series.Series.t;
}

(** A relation file that is not one, or is corrupt: the message names
    the file and what is wrong with it. *)
exception Invalid_file of string

type t

(** [create ~name ()] is an empty relation. [page_size] is the logical
    page size in bytes (default 4096); [pool_pages] the buffer-pool
    capacity in pages (default 64). *)
val create : ?page_size:int -> ?pool_pages:int -> name:string -> unit -> t

val name : t -> string
val cardinality : t -> int

(** [insert t ~name data] validates [data], appends it, and returns the
    new tuple. Series of different lengths are allowed (a {e ragged}
    relation): {!Simq_tsindex.Dataset} refuses them, and {!save}
    refuses to write them. Inserting into a loaded relation or a
    {!sub} view first copies its rows and names to the heap; the file
    and the parent never change. *)
val insert : t -> name:string -> Simq_series.Series.t -> tuple

(** [of_series ~name batch] bulk-creates a relation with generated tuple
    names. *)
val of_series : ?page_size:int -> name:string -> Simq_series.Series.t array -> t

(** [sub t ~name ~lo ~width] is the relation of [t]'s tuples
    [[lo, lo + width)], renumbered from 0, named [name]: a view of
    [t]'s rows and names, copying neither. Its page layout, buffer pool
    and counters are its own, laid out as {!of_series} would lay out
    the same series. Raises [Invalid_argument] unless [0 <= lo],
    [0 <= width <= cardinality t - lo] and the series in range share
    one length. *)
val sub : t -> name:string -> lo:int -> width:int -> t

(** [get ?budget t id] fetches one tuple through the buffer pool,
    guarding every page touch with [budget] when given — its charges
    and its fault plan (see {!Buffer_pool.touch}). The tuple's data is
    a fresh copy. Raises [Not_found] for unknown ids. *)
val get : ?budget:Simq_fault.Budget.state -> t -> int -> tuple

(** [touch ?budget t id] makes the page traffic of [get ?budget t id]
    and copies nothing. *)
val touch : ?budget:Simq_fault.Budget.state -> t -> int -> unit

(** [series t id] is a fresh copy of tuple [id]'s series, and
    [series_into t id out] writes it into [out]; neither touches a
    page. [series_name t id] is its name. Raise [Not_found] for
    unknown ids; [series_into] raises [Invalid_argument] when [out]'s
    length differs. *)
val series : t -> int -> Simq_series.Series.t

val series_into : t -> int -> Simq_series.Series.t -> unit
val series_name : t -> int -> string

(** [length t] is the length every series of [t] has; [None] when [t]
    is empty or ragged. *)
val length : t -> int option

(** [fold t ~init ~f] scans all tuples in storage order, touching each
    data page once, unguarded. *)
val fold : t -> init:'acc -> f:('acc -> tuple -> 'acc) -> 'acc

val iter : t -> f:(tuple -> unit) -> unit

(** [to_array t] is every tuple, touching no page. *)
val to_array : t -> tuple array

(** [pages t] is the number of logical pages the relation occupies. *)
val pages : t -> int

(** [stats t] exposes the I/O counters ({!Io_stats.reset} to clear
    between measurements). *)
val stats : t -> Io_stats.t

(** [digest t] is the trailer {!save} writes for [t]: read from the
    file for a loaded relation (checked by {!load}), else computed
    once by one pass over what {!save} would write. Raises
    [Invalid_argument] for a ragged relation. *)
val digest : t -> int64

(** [save t path] writes [t]'s file to a temporary file beside [path]
    and renames it to [path]. Raises [Invalid_argument] for a ragged
    relation (before writing anything), and [Sys_error] when a step
    fails, after removing the temporary file. *)
val save : t -> string -> unit

(** [load path] maps and checks the relation file at [path] (see
    above); no series is decoded. Raises {!Invalid_file} when it is
    not a valid relation file, and [Sys_error] when it cannot be
    opened or mapped. *)
val load : ?page_size:int -> ?pool_pages:int -> string -> t
