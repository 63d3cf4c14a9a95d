module Series = Simq_series.Series
module A = Bigarray.Array1

type tuple = {
  id : int;
  name : string;
  data : Series.t;
}

exception Invalid_file of string

type names =
  | Table of { words : Words.buffer; offsets : int; bytes : int; total : int }
      (* a file's name table: name [j] is the bytes from offset word
         [offsets + j] to the next one, counted from byte [8·bytes],
         [total] in all *)
  | Listed of string array

(* Rows of one length read in place, never written: a loaded file's
   mapping, or a view of another relation's rows. Row [i] is the
   [width] words from [base + i·width]; its name is name [first + i]. *)
type view = {
  words : Words.buffer;
  base : int;
  width : int;
  names : names;
  first : int;
}

(* Rows built by [insert], back to back: row [i] is the words
   [starts.(i) .. starts.(i+1) - 1]. Every array grows by doubling. *)
type built = {
  mutable bwords : Words.buffer;
  mutable starts : int array;
  mutable bnames : string array;
}

type store = View of view | Built of built

type t = {
  name : string;
  page_size : int;
  mutable store : store;
  mutable count : int;
  mutable digest : int64 option;  (* the sum {!save} writes, once known *)
  stats : Io_stats.t;
  pool : Buffer_pool.t;
}

let make ?(page_size = 4096) ?(pool_pages = 64) ~name ~count ~digest store =
  if page_size <= 64 then invalid_arg "Relation.create: page_size too small";
  let stats = Io_stats.create () in
  {
    name;
    page_size;
    store;
    count;
    digest;
    stats;
    pool = Buffer_pool.create ~capacity:pool_pages ~stats;
  }

let buffer len = A.create Bigarray.float64 Bigarray.c_layout len

let create ?page_size ?pool_pages ~name () =
  make ?page_size ?pool_pages ~name ~count:0 ~digest:None
    (Built { bwords = buffer 0; starts = [| 0 |]; bnames = [||] })

let name t = t.name
let cardinality t = t.count

(* Row [i]'s buffer, first word and length. *)
let row t i =
  match t.store with
  | View v -> (v.words, v.base + (i * v.width), v.width)
  | Built b -> (b.bwords, b.starts.(i), b.starts.(i + 1) - b.starts.(i))

let check_id t id = if id < 0 || id >= t.count then raise Not_found

let series_into t id out =
  check_id t id;
  let words, at, len = row t id in
  if Array.length out <> len then
    invalid_arg "Relation.series_into: length mismatch";
  for i = 0 to len - 1 do
    Array.unsafe_set out i (A.unsafe_get words (at + i))
  done

let series t id =
  check_id t id;
  let _, _, len = row t id in
  let out = Array.create_float len in
  series_into t id out;
  out

(* {!load} checked that the offsets rise from 0 to [total]. *)
let name_of names j =
  match names with
  | Listed a -> a.(j)
  | Table tb ->
    let a = Int64.to_int (Words.get tb.words (tb.offsets + j))
    and b = Int64.to_int (Words.get tb.words (tb.offsets + j + 1)) in
    Words.string tb.words ~pos:((8 * tb.bytes) + a) ~len:(b - a)

let series_name t id =
  check_id t id;
  match t.store with
  | View v -> name_of v.names (v.first + id)
  | Built b -> b.bnames.(id)

let length t =
  if t.count = 0 then None
  else
    match t.store with
    | View v -> Some v.width
    | Built b ->
      let n = b.starts.(1) - b.starts.(0) in
      let rec same i =
        i = t.count || (b.starts.(i + 1) - b.starts.(i) = n && same (i + 1))
      in
      if same 1 then Some n else None

(* [t]'s rows and names as its own growing arrays: copied once from a
   mapping or a parent's rows before the first [insert]. *)
let own t =
  match t.store with
  | Built b -> b
  | View v ->
    let words = buffer (t.count * v.width) in
    A.blit (A.sub v.words v.base (t.count * v.width)) words;
    let b =
      {
        bwords = words;
        starts = Array.init (t.count + 1) (fun i -> i * v.width);
        bnames = Array.init t.count (fun i -> name_of v.names (v.first + i));
      }
    in
    t.store <- Built b;
    b

let grow a ~need ~fill =
  if need <= Array.length a then a
  else begin
    let fresh = Array.make (Int.max 16 (Int.max need (2 * Array.length a))) fill in
    Array.blit a 0 fresh 0 (Array.length a);
    fresh
  end

(* A float is 8 bytes; a modest per-tuple header covers id, name and
   slot bookkeeping. *)
let tuple_bytes len = (8 * len) + 32

let insert t ~name data =
  let data = Series.validate data in
  let b = own t in
  let at = b.starts.(t.count) and len = Array.length data in
  if at + len > A.dim b.bwords then begin
    let words = buffer (Int.max 1024 (Int.max (at + len) (2 * A.dim b.bwords))) in
    A.blit (A.sub b.bwords 0 at) (A.sub words 0 at);
    b.bwords <- words
  end;
  Array.iteri (fun i v -> A.unsafe_set b.bwords (at + i) v) data;
  b.starts <- grow b.starts ~need:(t.count + 2) ~fill:0;
  b.starts.(t.count + 1) <- at + len;
  b.bnames <- grow b.bnames ~need:(t.count + 1) ~fill:"";
  b.bnames.(t.count) <- name;
  let tuple = { id = t.count; name; data } in
  t.count <- t.count + 1;
  t.digest <- None;
  Io_stats.record_page_write t.stats;
  tuple

let of_series ?page_size ~name batch =
  let t = create ?page_size ~name () in
  Array.iteri
    (fun idx data -> ignore (insert t ~name:(Printf.sprintf "seq-%04d" idx) data))
    batch;
  t

let sub t ~name ~lo ~width =
  if lo < 0 || width < 0 || lo > t.count - width then
    invalid_arg "Relation.sub: rows outside the relation";
  let view =
    match t.store with
    | View v -> { v with base = v.base + (lo * v.width); first = v.first + lo }
    | Built b ->
      let w = if width = 0 then 0 else b.starts.(lo + 1) - b.starts.(lo) in
      for i = lo to lo + width - 1 do
        if b.starts.(i + 1) - b.starts.(i) <> w then
          invalid_arg "Relation.sub: series of unequal lengths"
      done;
      { words = b.bwords; base = b.starts.(lo); width = w; names = Listed b.bnames;
        first = lo }
  in
  make ~page_size:t.page_size ~name ~count:width ~digest:None (View view)

(* The byte offset of tuple [i] in the relation's page layout: the
   tuples before it, each [tuple_bytes] of its length. *)
let offset t i =
  match t.store with
  | View v -> i * tuple_bytes v.width
  | Built b -> (8 * (b.starts.(i) - b.starts.(0))) + (32 * i)

let page_of t offset = offset / t.page_size

(* Touch every page the tuple spans. *)
let touch_tuple ?budget t idx =
  let _, _, len = row t idx in
  let first = page_of t (offset t idx) in
  let last = page_of t (offset t idx + tuple_bytes len - 1) in
  for page = first to last do
    ignore (Buffer_pool.touch ?budget t.pool page)
  done

let touch ?budget t id =
  check_id t id;
  touch_tuple ?budget t id

let tuple t id = { id; name = series_name t id; data = series t id }

let get ?budget t id =
  touch ?budget t id;
  tuple t id

let fold t ~init ~f =
  let acc = ref init in
  for idx = 0 to t.count - 1 do
    touch_tuple t idx;
    acc := f !acc (tuple t idx)
  done;
  !acc

let iter t ~f = fold t ~init:() ~f:(fun () tuple -> f tuple)
let to_array t = Array.init t.count (tuple t)

let pages t =
  let bytes = offset t t.count in
  if bytes = 0 then 0 else 1 + page_of t (bytes - 1)

let stats t = t.stats

(* --- the file ------------------------------------------------------------- *)

let magic = Bytes.get_int64_le (Bytes.of_string "SIMQREL\001") 0
let version = 1L

(* Header, rows, name table, trailer: see relation.mli. *)
let write w t =
  let n =
    match length t with
    | Some n -> n
    | None when t.count = 0 -> 0
    | None -> invalid_arg "Relation.save: series of unequal lengths"
  in
  Words.word w magic;
  Words.word w version;
  Words.int w t.count;
  Words.int w n;
  Words.int w (String.length t.name);
  Words.bytes w t.name;
  if t.count > 0 then begin
    let words, at, _ = row t 0 in
    Words.words w words ~pos:at ~len:(t.count * n)
  end;
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
  if t.count > 0 && length t = None then
    invalid_arg "Relation.save: series of unequal lengths";
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
  let names = Table { words; offsets = names_at; bytes = bytes_at; total } in
  make ?page_size ?pool_pages
    ~name:(Words.string words ~pos:40 ~len:name_len)
    ~count ~digest:(Some digest)
    (View { words; base = rows_at; width = n; names; first = 0 })
