module Series = Simq_series.Series
module A = Bigarray.Array1

exception Invalid_file of string

type names =
  | Table of { words : Words.buffer; offsets : int; bytes : int; total : int }
      (* a file's name table: name [j] is the bytes from offset word
         [offsets + j] to the next one, counted from byte [8·bytes],
         [total] in all *)
  | Listed of string array

(* Rows of one length read in place, never written: a loaded file's
   mapping, the buffer [of_rows] filled, or a view of another
   relation's rows. Row [i] is the [width] words from [base + i·width];
   its name is name [first + i]. *)
type t = {
  name : string;
  page_size : int;
  words : Words.buffer;
  base : int;
  width : int;
  names : names;
  first : int;
  count : int;
  mutable digest : int64 option;  (* the sum {!save} writes, once known *)
  stats : Io_stats.t;
  pool : Buffer_pool.t;
}

let make ?(page_size = 4096) ?(pool_pages = 64) ~name ~count ~digest ~words
    ~base ~width ~names ~first () =
  if page_size <= 64 then invalid_arg "Relation: page_size too small";
  let stats = Io_stats.create () in
  {
    name;
    page_size;
    words;
    base;
    width;
    names;
    first;
    count;
    digest;
    stats;
    pool = Buffer_pool.create ~capacity:pool_pages ~stats;
  }

(* Everything is checked before the buffer is made: a refused batch
   builds nothing. *)
let of_rows ?page_size ?pool_pages ~name ~names rows =
  let count = Array.length rows in
  if Array.length names <> count then
    invalid_arg "Relation.of_rows: one name per row";
  let width = if count = 0 then 0 else Array.length rows.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> width then
        invalid_arg "Relation.of_rows: rows of unequal lengths";
      ignore (Series.validate row : Series.t))
    rows;
  let words = A.create Bigarray.float64 Bigarray.c_layout (count * width) in
  Array.iteri
    (fun i row ->
      Array.iteri (fun j v -> A.unsafe_set words ((i * width) + j) v) row)
    rows;
  make ?page_size ?pool_pages ~name ~count ~digest:None ~words ~base:0 ~width
    ~names:(Listed (Array.copy names)) ~first:0 ()

let of_series ?page_size ~name batch =
  of_rows ?page_size ~name
    ~names:(Array.init (Array.length batch) (Printf.sprintf "seq-%04d"))
    batch

let name t = t.name
let cardinality t = t.count
let length t = if t.count = 0 then 0 else t.width

let check_id t id = if id < 0 || id >= t.count then raise Not_found

let series_into t id out =
  check_id t id;
  if Array.length out <> t.width then
    invalid_arg "Relation.series_into: length mismatch";
  let at = t.base + (id * t.width) in
  for i = 0 to t.width - 1 do
    Array.unsafe_set out i (A.unsafe_get t.words (at + i))
  done

let series t id =
  check_id t id;
  let out = Array.create_float t.width in
  series_into t id out;
  out

(* {!load} checked that the offsets rise from 0 to [total]. *)
let series_name t id =
  check_id t id;
  let j = t.first + id in
  match t.names with
  | Listed a -> a.(j)
  | Table tb ->
    let a = Int64.to_int (Words.get tb.words (tb.offsets + j))
    and b = Int64.to_int (Words.get tb.words (tb.offsets + j + 1)) in
    Words.string tb.words ~pos:((8 * tb.bytes) + a) ~len:(b - a)

let sub t ~name ~lo ~width =
  if lo < 0 || width < 0 || lo > t.count - width then
    invalid_arg "Relation.sub: rows outside the relation";
  make ~page_size:t.page_size ~name ~count:width ~digest:None ~words:t.words
    ~base:(t.base + (lo * t.width)) ~width:t.width ~names:t.names
    ~first:(t.first + lo) ()

(* A float is 8 bytes; a modest per-tuple header covers id, name and
   slot bookkeeping. Tuple [i] starts at byte [i·tuple_bytes]. *)
let tuple_bytes t = (8 * t.width) + 32
let page_of t offset = offset / t.page_size

(* Touch every page the tuple spans. *)
let touch ?budget t id =
  check_id t id;
  let first = page_of t (id * tuple_bytes t) in
  let last = page_of t (((id + 1) * tuple_bytes t) - 1) in
  for page = first to last do
    ignore (Buffer_pool.touch ?budget t.pool page)
  done

let pages t =
  let bytes = t.count * tuple_bytes t in
  if bytes = 0 then 0 else 1 + page_of t (bytes - 1)

let stats t = t.stats

(* --- the file ------------------------------------------------------------- *)

let magic = Bytes.get_int64_le (Bytes.of_string "SIMQREL\001") 0
let version = 1L

(* Header, rows, name table, trailer: see relation.mli. *)
let write w t =
  let n = length t in
  Words.word w magic;
  Words.word w version;
  Words.int w t.count;
  Words.int w n;
  Words.int w (String.length t.name);
  Words.bytes w t.name;
  Words.words w t.words ~pos:t.base ~len:(t.count * n);
  let names = Array.init t.count (series_name t) in
  let off = ref 0 in
  Array.iter
    (fun s ->
      Words.int w !off;
      off := !off + String.length s)
    names;
  Words.int w !off;
  Words.bytes w (String.concat "" (Array.to_list names));
  Words.finish w

let digest t =
  match t.digest with
  | Some d -> d
  | None ->
    let d = write (Words.writer None) t in
    t.digest <- Some d;
    d

(* Written beside the final name and renamed over it, so a reader
   sees the old file or the new one, never a part, and a process that
   mapped the old one keeps reading the old inode. *)
let save t path =
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
      ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
  in
  match
    let d =
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          let d = write (Words.writer (Some oc)) t in
          flush oc;
          d)
    in
    Sys.rename tmp path;
    d
  with
  | d -> t.digest <- Some d
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* One private mapping of the whole file, float64 in the host's order,
   the descriptor closed once it is made. *)
let bad_file path why =
  raise (Invalid_file (Printf.sprintf "not a relation file (%s): %s" why path))

let map path =
  let bad = bad_file path in
  let unreadable e = raise (Sys_error (path ^ ": " ^ Unix.error_message e)) in
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
    with Unix.Unix_error (e, _, _) -> unreadable e
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let st = Unix.fstat fd in
      if st.Unix.st_kind <> Unix.S_REG then bad "not a regular file";
      if st.Unix.st_size < 8 * 7 || st.Unix.st_size land 7 <> 0 then
        bad "too short or not whole words";
      match
        Unix.map_file fd Bigarray.float64 Bigarray.c_layout false [| -1 |]
      with
      | words -> Bigarray.array1_of_genarray words
      | exception Unix.Unix_error (e, _, _) -> unreadable e)

let load ?page_size ?pool_pages path =
  let bad = bad_file path in
  if Sys.big_endian then bad "relation files are read on little-endian hosts";
  let words = map path in
  let len = A.dim words in
  let word = Words.get words in
  let int_at i ~hi =
    let v = word i in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int hi) > 0 then
      bad "corrupt header";
    Int64.to_int v
  in
  if not (Int64.equal (word 0) magic) then bad "no relation header";
  if not (Int64.equal (word 1) version) then
    bad (Printf.sprintf "format version %Ld, expected %Ld" (word 1) version);
  let count = int_at 2 ~hi:len and n = int_at 3 ~hi:len in
  let name_len = int_at 4 ~hi:(8 * len) in
  if (count = 0) <> (n = 0) || (n > 0 && count > len / n) then
    bad "corrupt header";
  let rows_at = 5 + Words.padded name_len in
  let names_at = rows_at + (count * n) in
  if names_at + count + 2 > len then bad "truncated";
  let total = int_at (names_at + count) ~hi:(8 * len) in
  let bytes_at = names_at + count + 1 in
  if bytes_at + Words.padded total + 1 <> len then
    bad "truncated or trailing bytes";
  (* One pass over every word: the sum, and the rows' finiteness. *)
  let sum = Words.create () in
  ignore (Words.absorb sum words ~pos:0 ~len:rows_at : bool);
  let finite = Words.absorb sum words ~pos:rows_at ~len:(count * n) in
  ignore (Words.absorb sum words ~pos:names_at ~len:(len - 1 - names_at) : bool);
  let digest = Words.value sum in
  if not (Int64.equal digest (word (len - 1))) then
    bad "corrupt: its trailer does not match its words";
  if not finite then bad "a series holds a non-finite value";
  (* A table whose offsets do not rise from 0 to its length cannot have
     been written by {!save}, whatever its trailer says. *)
  let rec rising j prev =
    j > count
    ||
    let v = word (names_at + j) in
    Int64.compare v prev >= 0
    && Int64.compare v (Int64.of_int total) <= 0
    && rising (j + 1) v
  in
  if not (Int64.equal (word names_at) 0L && rising 1 0L) then
    bad "corrupt name table";
  make ?page_size ?pool_pages
    ~name:(Words.string words ~pos:40 ~len:name_len)
    ~count ~digest:(Some digest) ~words ~base:rows_at ~width:n
    ~names:(Table { words; offsets = names_at; bytes = bytes_at; total })
    ~first:0 ()
