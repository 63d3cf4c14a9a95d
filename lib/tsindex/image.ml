module Flat = Simq_dsp.Flat
module Relation = Simq_storage.Relation
module Words = Simq_storage.Words
module A = Bigarray.Array1

(* Every field is one little-endian 64-bit word: ints as themselves,
   floats as their IEEE bits. *)
let magic = Bytes.get_int64_le (Bytes.of_string "SIMQPREP") 0

(* Bump it whenever a cold open would compute other bits or another
   tree from the same series: the normal form, the FFT, the head
   table, the feature configuration and map, [max_fill] or the STR
   bulk load. An image keyed by the old version is then ignored and
   rewritten. The key's [code] word catches a forgotten bump of any of
   them but the configuration. *)
let version = 5L

let max_fill = 32

type key = {
  count : int;
  n : int;
  digest : int64;
  code : int64;
}

type t = {
  means : Words.buffer;
  stds : Words.buffer;
  ids : int array;
  heads : Flat.t;
  points : Words.buffer;
  spectra : Flat.t;
  shape : int array array;
}

let path file = file ^ ".prepared"
let config = Feature.default
let dims = Feature.dims config

(* The probe tree's points: deterministic, spread over every
   dimension, with ties. *)
let probe_points =
  Array.init 100 (fun i ->
      ( Array.init dims (fun j ->
            float_of_int ((((37 * i) + (11 * j) + 5) mod 97) - 48)),
        i ))

(* The fingerprint of the code that prepares an image: one fixed probe
   series of length [n] prepared by the cold path — its moments, its
   spectrum, its head row and its feature point (none when [n] is too
   short for one) — and the tree the STR load packs from fixed points
   at [max_fill]: its shape, its root MBR and its entries' order. A
   change to the normal form, the FFT, the head table, the feature map,
   the bulk load or [max_fill] moves it even when [version] was not
   bumped. *)
let code ~max_fill n =
  let w = Words.writer None in
  if n >= 1 then begin
    let probe =
      Array.init n (fun t -> float_of_int (((37 * t) + 11) mod 23) -. 11.)
    in
    let d =
      Dataset.of_series ~pool:Simq_parallel.Pool.sequential ~name:"probe"
        [| probe |]
    in
    Words.float w (Dataset.mean d 0);
    Words.float w (Dataset.std d 0);
    let spectrum = Dataset.spectrum d 0 in
    Words.words w spectrum ~pos:0 ~len:(A.dim spectrum);
    Words.words w (Dataset.heads d) ~pos:0 ~len:(A.dim (Dataset.heads d));
    if 2 * config.Feature.k < n then
      Array.iter (Words.float w) (Feature.point config d 0)
  end;
  let tree = Simq_rtree.Bulk.load ~max_fill ~dims probe_points in
  Array.iter (Array.iter (Words.int w)) (Simq_rtree.Bulk.shape tree);
  let root = (Simq_rtree.Rstar.root tree).Simq_rtree.Node.mbr in
  Array.iter (Words.float w) root.Simq_geometry.Rect.lo;
  Array.iter (Words.float w) root.Simq_geometry.Rect.hi;
  Simq_rtree.Rstar.iter tree ~f:(fun _ i -> Words.int w i);
  Words.finish w

let key r =
  let n = Relation.length r in
  {
    count = Relation.cardinality r;
    n;
    digest = Relation.digest r;
    code = code ~max_fill n;
  }

let header key =
  [
    magic;
    version;
    Int64.of_int key.count;
    Int64.of_int key.n;
    key.digest;
    key.code;
  ]

(* The image holds enough to rebuild every series (each normal form's
   spectrum, mean and std), so it may let in no one the relation
   file's own bits keep out: it carries those bits, less the group's
   when its group is not the file's. *)
let perm ~like (st : Unix.stats) =
  let bits = like.Unix.st_perm land 0o777 in
  if st.Unix.st_gid = like.Unix.st_gid then bits else bits land 0o707

(* The words of each float section, in file order: the spectra first,
   so that the sections a query reads first (the moments, the head
   table) and the points the tree is packed from are the last the
   verification pass reads, and the likeliest still in cache. *)
let sections ~count ~n =
  [
    2 * Simq_dsp.Fft.half n * count;
    count;
    count;
    2 * Flat.head_width * count;
    dims * count;
  ]

(* --- writing -------------------------------------------------------------- *)

let write_fields w key dataset ~shape =
  List.iter (Words.word w) (header key);
  let count = Dataset.cardinality dataset in
  for s = 0 to count - 1 do
    Words.int w (Dataset.id_at dataset s)
  done;
  let all (b : Words.buffer) = Words.words w b ~pos:0 ~len:(A.dim b) in
  all (Dataset.spectra dataset);
  all (Dataset.means dataset);
  all (Dataset.stds dataset);
  all (Dataset.heads dataset);
  for s = 0 to count - 1 do
    Array.iter (Words.float w)
      (Feature.point config dataset (Dataset.id_at dataset s))
  done;
  Words.int w (Array.length shape);
  Array.iter
    (fun level ->
      Words.int w (Array.length level);
      Array.iter (Words.int w) level)
    shape;
  ignore (Words.finish w : int64)

(* Written beside the final name and renamed over it, so a reader
   sees the old image or the new one, never a part, and a process that
   mapped the old one keeps reading the old inode. Created readable
   by its owner alone, and widened to the relation file's bits only
   once it is known whose group it is in. *)
let write ~like file key dataset ~shape =
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o600
      ~temp_dir:(Filename.dirname file) (Filename.basename file) ".tmp"
  in
  match
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        let fd = Unix.descr_of_out_channel oc in
        Unix.fchmod fd (perm ~like (Unix.fstat fd));
        write_fields (Words.writer (Some oc)) key dataset ~shape;
        flush oc);
    Sys.rename tmp file
  with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* --- reading -------------------------------------------------------------- *)

exception Invalid

(* The sections after the header are checked in one pass of the
   {!Words} kernel over every word: the trailer must be their sum, and
   every float section finite. Then the ints are read and
   range-checked, and the float sections handed out as views. *)
let read_fields words key =
  let len = A.dim words and count = key.count in
  let word = Words.get words in
  let header = header key in
  let floats_at = List.length header + count in
  let floats = List.fold_left ( + ) 0 (sections ~count ~n:key.n) in
  let shape_at = floats_at + floats in
  if shape_at + 2 > len then raise Invalid;
  List.iteri (fun i v -> if not (Int64.equal (word i) v) then raise Invalid) header;
  let sum = Words.create () in
  ignore (Words.absorb sum words ~pos:0 ~len:floats_at : bool);
  let finite = Words.absorb sum words ~pos:floats_at ~len:floats in
  ignore (Words.absorb sum words ~pos:shape_at ~len:(len - 1 - shape_at) : bool);
  if not (finite && Int64.equal (Words.value sum) (word (len - 1))) then
    raise Invalid;
  let pos = ref (List.length header) in
  let get_int ~lo ~hi =
    if !pos >= len - 1 then raise Invalid;
    let v = word !pos in
    incr pos;
    if Int64.compare v (Int64.of_int lo) < 0
       || Int64.compare v (Int64.of_int hi) > 0
    then raise Invalid;
    Int64.to_int v
  in
  let ids = Array.init count (fun _ -> get_int ~lo:0 ~hi:(count - 1)) in
  let at = ref floats_at in
  let next len =
    let v = A.sub words !at len in
    at := !at + len;
    v
  in
  match List.map next (sections ~count ~n:key.n) with
  | [ spectra; means; stds; heads; points ] ->
    pos := shape_at;
    (* With every fan-out at least 2, 64 levels would hold over 2^63
       entries. *)
    let levels = get_int ~lo:1 ~hi:64 in
    let shape =
      Array.init levels (fun _ ->
          let m = get_int ~lo:1 ~hi:count in
          Array.init m (fun _ -> get_int ~lo:1 ~hi:count))
    in
    if !pos <> len - 1 then raise Invalid;
    { means; stds; ids; heads; points; spectra; shape }
  | _ -> assert false

(* One private mapping of the whole file, float64 in the host's order;
   the descriptor is closed once it is made. The sections are views of
   it, so the data set reads the file's pages in place. A big-endian
   host would read other doubles than the little-endian file holds, so
   there every image is invalid and the open takes the cold path. *)
let map ~like file =
  let fd = Unix.openfile file [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let st = Unix.fstat fd in
      if st.Unix.st_kind <> Unix.S_REG
         || st.Unix.st_perm land lnot (perm ~like st) <> 0
         || st.Unix.st_size = 0
         || st.Unix.st_size land 7 <> 0
      then raise Invalid;
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.float64 Bigarray.c_layout false [| -1 |]))

let read ~like file key =
  if Sys.big_endian then None
  else
    match read_fields (map ~like file) key with
    | image -> Some image
    | exception (Invalid | Failure _ | Sys_error _ | Unix.Unix_error _) -> None
