(** The prepared image of a relation file: what {!Dataset.of_relation}
    and {!Kindex.build} compute from it, stored beside it so that a
    later process skips both ({!Kindex.open_file}).

    The image of [FILE] is [FILE.prepared] ({!path}), a flat sequence
    of little-endian 64-bit words (ints as themselves, floats as their
    IEEE bits; no [Marshal]):

    + the header: the magic ["SIMQPREP"], the format version, and the
      {!key}: the count, the series length [n], the relation file's
      digest and the code fingerprint;
    + the slot order: the id each slot holds;
    + the float sections: the spectrum buffer of weighted halves,
      [2·(⌊n/2⌋+1)·count] doubles;
      every entry's mean, then every entry's std, in id order; the
      head table ({!Dataset.heads}, [2·head_width] doubles per slot);
      the tree's leaf points ({!Feature.point}, [dims] doubles per
      slot); all in slot order but the moments;
    + the tree's shape ({!Simq_rtree.Bulk.shape}): the number of
      levels, then per level from the leaves up its node count and
      each node's fan-out;
    + the trailer: the {!Simq_storage.Words} sum of every word before
      it.

    An image is used only when it is complete, its header equals the
    key of the relation being opened (the same format version, count,
    length, relation digest and code fingerprint), its words pass the
    kernel, and its permission bits let in no one the relation file's
    keep out. The feature configuration ({!Feature.default}) and
    {!max_fill} are fixed; the format version changes with them.

    {b What a warm open verifies.} Every word of both files, by one
    pass of one kernel each ({!Simq_storage.Words}): the relation
    file's at {!Simq_storage.Relation.load}, whose trailer is the
    [digest] of this key, and the image's at {!read}, whose float
    sections must also be finite. The sum is four lanes of a mix that
    is a bijection of the word for a fixed state and of the state for a
    fixed word, the lanes folded by the same mix, so any one changed
    word of either file changes its sum: a flipped byte of the
    relation file is refused before the image is looked at, and one of
    the image sends the open down the cold path. The key then costs no
    pass over the series: it is the relation's verified trailer.

    {b The mapping.} {!read} maps the whole file once, privately
    ({!Unix.map_file}, float64, the descriptor closed once the mapping
    is made), checks it, and hands out its float sections as views of
    that one mapping: the data set reads the file's pages in place,
    never copying them into the heap, and the pages a process touches
    count once in its resident set. The mapping lives as long as any
    view. Its contract:
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

(** The fan-out the image's tree is packed with: the k-index's
    default ({!Kindex.build}). *)
val max_fill : int

(** What an image must have been written for. *)
type key = {
  count : int;
  n : int;
  digest : int64;
      (** the relation file's trailer ({!Simq_storage.Relation.digest}) *)
  code : int64;
      (** the fingerprint of the preparing code: one fixed probe series
          of length [n] prepared by the cold path — its moments, its
          spectrum, its head row and, when [n] allows one, its feature
          point — and a probe tree of 100 fixed points bulk-loaded at
          {!max_fill} — its shape, its root MBR and its entries' order
          — so that a change to the normal form, the FFT, the head
          table, the feature map, the STR load or [max_fill] is caught
          even when the format version was not bumped *)
}

(** A read image: the buffers {!Dataset.of_prepared} adopts and what
    {!Simq_rtree.Bulk.pack} takes. Every buffer is a view of the
    file's mapping; [ids] and [shape] are copies. *)
type t = {
  means : Simq_storage.Words.buffer;  (** by id *)
  stds : Simq_storage.Words.buffer;  (** by id *)
  ids : int array;  (** slot → id *)
  heads : Simq_dsp.Flat.t;  (** slot order *)
  points : Simq_storage.Words.buffer;
      (** slot order, {!Feature.dims} doubles per slot *)
  spectra : Simq_dsp.Flat.t;  (** slot order *)
  shape : int array array;
}

(** [path file] is [file ^ ".prepared"]. *)
val path : string -> string

(** [code ~max_fill n] is the fingerprint ({!key}'s [code]) of the
    preparing code at series length [n], its probe tree bulk-loaded at
    [max_fill]. *)
val code : max_fill:int -> int -> int64

(** [key r] is the key of [r]'s image: its digest is
    {!Simq_storage.Relation.digest}, read from a loaded relation's
    verified trailer; no series is read. It prepares one probe series
    and packs one probe tree. *)
val key : Simq_storage.Relation.t -> key

(** [write ~like path key dataset ~shape] writes the image of
    [dataset], laid out in its tree's leaf order, with every slot's
    feature point, and of the tree's [shape], to a temporary file in
    [path]'s directory and renames it to [path]. [like] is the relation file's {!Unix.stats}: the image
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
    host, when its permission bits allow more than {!write} gives an
    image of a file with stats [like], or when it is short, has
    trailing bytes, another header, a trailer that does not match its
    words, a non-finite double in a float section, or an int out of
    range (a slot outside the ids, a level count outside [1 .. 64], a
    node count or fan-out outside [1 .. count]). Whether the slot
    order is a permutation and the shape fits is left to
    {!Dataset.of_prepared} and {!Simq_rtree.Bulk.pack}, which raise
    [Invalid_argument] otherwise. *)
val read : like:Unix.stats -> string -> key -> t option
