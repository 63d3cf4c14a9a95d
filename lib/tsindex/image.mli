(** The prepared image of a relation file: what {!Dataset.of_relation}
    and {!Kindex.build} compute from it, stored beside it so that a
    later process skips both ({!Kindex.open_file}).

    The image of [FILE] is [FILE.prepared] ({!path}), a flat sequence
    of little-endian 64-bit words (ints as themselves, floats as their
    IEEE bits; no [Marshal]):

    + the header: the magic ["SIMQPREP"], the format version, and the
      {!key}: the count, the series length [n], the digest and the
      code fingerprint;
    + every entry's mean, then every entry's std, in id order;
    + the slot order: the id each slot holds;
    + the spectrum buffer in slot order, [2·n·count] floats;
    + the tree's shape ({!Simq_rtree.Bulk.shape}): the number of
      levels, then per level from the leaves up its node count and
      each node's fan-out;
    + the trailer: a 64-bit sum of every word before it.

    An image is used only when it is complete, its header equals the
    key of the relation being opened (the same format version, count,
    length, digest of every series value's IEEE bits, and code
    fingerprint), and its permission bits let in no one the relation
    file's keep out. The feature configuration and [max_fill] are fixed
    ({!Kindex.open_file}); the format version changes with them.

    {b The mapping.} {!read} maps the whole file once, privately
    ({!Unix.map_file}, float64, the descriptor closed once the mapping
    is made), checks it word by word, and hands out the spectrum
    section as a view of that one mapping: the data set reads the
    file's pages in place, never copying them into the heap, and the
    pages a process touches count once in its resident set. The
    mapping lives as long as the view. Its contract:
    - simq replaces an image only by renaming a complete new file over
      it ({!write}), so a process holding a mapping keeps the old inode
      and its bytes, whatever later opens write;
    - writing an image file in place (or truncating it) under a running
      reader is out of contract: the reader may see the new bytes, or
      be killed by [SIGBUS] for pages the file no longer has;
    - nothing writes through the mapping: it is private, so even a
      write (a {!Dataset.lay_out} of the opened data set) would copy
      the page, never change the file;
    - a failed mapping ([Unix.Unix_error]) is an invalid image, and so
      is any image on a big-endian host, which would read other
      doubles than the file holds: the open takes the cold path. *)

(** What an image must have been written for. *)
type key = {
  count : int;
  n : int;
  digest : int64;  (** of every series value's bits, in id order *)
  code : int64;
      (** the fingerprint of the preparing code: the bits of one fixed
          probe series of length [n] prepared by the cold path — its
          moments, its spectrum and, when [n] allows one, its feature
          point — so that a change to the normal form, the FFT or the
          feature map is caught even when the format version was not
          bumped *)
}

(** A read image: the arrays {!Dataset.of_prepared} and
    {!Simq_rtree.Bulk.pack} take. [spectra] is a view of the file's
    mapping; the other fields are copies. *)
type t = {
  means : float array;  (** by id *)
  stds : float array;  (** by id *)
  ids : int array;  (** slot → id *)
  spectra : Simq_dsp.Flat.t;  (** slot order *)
  shape : int array array;
}

(** [path file] is [file ^ ".prepared"]. *)
val path : string -> string

(** [key r] is the key of [r]'s image; it reads every series value
    once and prepares one probe series. *)
val key : Simq_storage.Relation.t -> key

(** [write ~like path key dataset ~shape] writes the image of
    [dataset], laid out in its tree's leaf order, and of the tree's
    [shape], to a temporary file in [path]'s directory and renames it
    to [path]. [like] is the relation file's {!Unix.stats}: the image
    gets its permission bits, less the group's when the image's group
    is another (the temporary file is its owner's alone until then).
    It streams through one small buffer, copying no spectrum. Raises
    [Sys_error] or [Unix.Unix_error] when any step fails, after
    removing the temporary file. *)
val write :
  like:Unix.stats ->
  string ->
  key ->
  Dataset.t ->
  shape:int array array ->
  unit

(** [read ~like path key] is the image at [path] when it was written
    for [key], mapped (see {e The mapping} above); [None] when there is
    no readable regular file, when it cannot be mapped, on a big-endian
    host, when its
    permission bits allow more than {!write} gives an image of a file
    with stats [like], or when it is short, has trailing bytes, another
    header, a field out of range (a non-finite moment, a negative std,
    a slot outside the ids, a level count outside [1 .. 64], a node
    count or fan-out outside [1 .. count]) or a trailer that does not
    match. Whether the slot order is a permutation and the shape fits is left
    to {!Dataset.of_prepared} and {!Simq_rtree.Bulk.pack}, which raise
    [Invalid_argument] otherwise. *)
val read : like:Unix.stats -> string -> key -> t option
