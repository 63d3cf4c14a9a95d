module Flat = Simq_dsp.Flat
module Relation = Simq_storage.Relation

(* Every field is one little-endian 64-bit word: ints as themselves,
   floats as their IEEE bits. *)
let magic = Bytes.get_int64_le (Bytes.of_string "SIMQPREP") 0

(* Bump it whenever a cold open would compute other bits or another
   tree from the same series: the normal form, the FFT, the feature
   configuration and map, [max_fill] or the STR bulk load. An image
   keyed by the old version is then ignored and rewritten. The key's
   [code] word catches a forgotten bump of the first three. *)
let version = 3L

type key = {
  count : int;
  n : int;
  digest : int64;
  code : int64;
}

type t = {
  means : float array;
  stds : float array;
  ids : int array;
  spectra : Flat.t;
  shape : int array array;
}

let path file = file ^ ".prepared"

(* For a fixed state the step is a bijection of the word, and for a
   fixed word a bijection of the state, so changing any one word
   changes the final sum; the multiplies and the rotation spread every
   bit of the word over the state, so structured changes such as a
   negated series (its words' sign bits) do not cancel out. *)
let[@inline] mix h w =
  let w =
    Int64.mul
      (Int64.logxor w (Int64.shift_right_logical w 29))
      0xbf58476d1ce4e5b9L
  in
  let h = Int64.logxor h w in
  Int64.mul
    (Int64.logor (Int64.shift_left h 27) (Int64.shift_right_logical h 37))
    0x94d049bb133111ebL

let seed = 0x9e3779b97f4a7c15L

let[@inline] mix_float h v = mix h (Int64.bits_of_float v)

(* The fingerprint of the code that prepares an image: one fixed probe
   series of length [n] prepared by the cold path, its moments, its
   spectrum and its feature point (none when [n] is too short for
   one). A change to the normal form, the FFT or the feature map moves
   it even when [version] was not bumped. *)
let code n =
  if n < 1 then seed
  else
    let probe =
      Array.init n (fun t -> float_of_int (((37 * t) + 11) mod 23) -. 11.)
    in
    let d =
      Dataset.of_series ~pool:Simq_parallel.Pool.sequential ~name:"probe"
        [| probe |]
    in
    let e = Dataset.get d 0 in
    let h = ref (mix_float (mix_float seed e.Dataset.mean) e.Dataset.std) in
    let spectrum = Dataset.spectrum d 0 in
    for i = 0 to Bigarray.Array1.dim spectrum - 1 do
      h := mix_float !h spectrum.{i}
    done;
    if Feature.default.Feature.k < n then
      Array.iter (fun v -> h := mix_float !h v) (Feature.point Feature.default d e);
    !h

let key r =
  let tuples = Relation.to_array r in
  let h = ref seed in
  for i = 0 to Array.length tuples - 1 do
    let s = tuples.(i).Relation.data in
    for t = 0 to Array.length s - 1 do
      h := mix_float !h s.(t)
    done
  done;
  let n =
    if Array.length tuples = 0 then 0 else Array.length tuples.(0).Relation.data
  in
  { count = Array.length tuples; n; digest = !h; code = code n }

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

(* The spectra move through one buffer of [chunk] words. *)
let chunk = 8192

(* --- writing -------------------------------------------------------------- *)

type writer = { oc : out_channel; wbuf : Bytes.t; mutable wsum : int64 }

let put w v =
  Bytes.set_int64_le w.wbuf 0 v;
  output w.oc w.wbuf 0 8;
  w.wsum <- mix w.wsum v

let put_int w i = put w (Int64.of_int i)
let put_float w v = put w (Int64.bits_of_float v)

let put_ints w a =
  put_int w (Array.length a);
  Array.iter (put_int w) a

let put_spectra w (a : Flat.t) =
  let len = Bigarray.Array1.dim a in
  let h = ref w.wsum and pos = ref 0 in
  while !pos < len do
    let c = Int.min chunk (len - !pos) in
    for i = 0 to c - 1 do
      let v = Int64.bits_of_float a.{!pos + i} in
      Bytes.set_int64_le w.wbuf (8 * i) v;
      h := mix !h v
    done;
    output w.oc w.wbuf 0 (8 * c);
    pos := !pos + c
  done;
  w.wsum <- !h

let write_fields w key dataset ~shape =
  List.iter (put w) (header key);
  let entries = Dataset.entries dataset in
  Array.iter (fun (e : Dataset.entry) -> put_float w e.Dataset.mean) entries;
  Array.iter (fun (e : Dataset.entry) -> put_float w e.Dataset.std) entries;
  for s = 0 to Array.length entries - 1 do
    put_int w (Dataset.id_at dataset s)
  done;
  put_spectra w (Dataset.spectra dataset);
  put_int w (Array.length shape);
  Array.iter (put_ints w) shape;
  (* The trailer: the sum of every word before it. *)
  Bytes.set_int64_le w.wbuf 0 w.wsum;
  output w.oc w.wbuf 0 8

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
        write_fields
          { oc; wbuf = Bytes.create (8 * chunk); wsum = seed }
          key dataset ~shape;
        flush oc);
    Sys.rename tmp file
  with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* --- reading -------------------------------------------------------------- *)

exception Invalid

(* The mapped file as words, read front to back: [pos] is the next
   word, [rsum] the sum of every word before it. A word is the float
   whose bits the file holds; [Int64.bits_of_float] gives them back
   unchanged. *)
type reader = { words : Flat.t; mutable pos : int; mutable rsum : int64 }

(* [len] words from the cursor, summed; raises [Invalid] past the end. *)
let take r len =
  let at = r.pos in
  if len < 0 || len > Bigarray.Array1.dim r.words - at then raise Invalid;
  let h = ref r.rsum in
  for i = at to at + len - 1 do
    h := mix_float !h (Bigarray.Array1.unsafe_get r.words i)
  done;
  r.rsum <- !h;
  r.pos <- at + len;
  at

let get r = Int64.bits_of_float r.words.{take r 1}

(* An int in [lo, hi]. *)
let get_int r ~lo ~hi =
  let v = get r in
  if Int64.compare v (Int64.of_int lo) < 0
     || Int64.compare v (Int64.of_int hi) > 0
  then raise Invalid;
  Int64.to_int v

let get_floats r len =
  let at = take r len in
  Array.init len (fun i -> r.words.{at + i})

let read_fields r key =
  List.iter (fun v -> if not (Int64.equal (get r) v) then raise Invalid)
    (header key);
  let count = key.count in
  let means = get_floats r count and stds = get_floats r count in
  Array.iter (fun m -> if not (Float.is_finite m) then raise Invalid) means;
  Array.iter
    (fun s -> if not (Float.is_finite s && s >= 0.) then raise Invalid)
    stds;
  let ids = Array.init count (fun _ -> get_int r ~lo:0 ~hi:(count - 1)) in
  let len = 2 * key.n * count in
  let spectra = Bigarray.Array1.sub r.words (take r len) len in
  (* With every fan-out at least 2, 64 levels would hold over 2^63
     entries. *)
  let levels = get_int r ~lo:1 ~hi:64 in
  let shape =
    Array.init levels (fun _ ->
        let m = get_int r ~lo:1 ~hi:count in
        Array.init m (fun _ -> get_int r ~lo:1 ~hi:count))
  in
  let sum = r.rsum in
  if not (Int64.equal (get r) sum) then raise Invalid;
  if r.pos <> Bigarray.Array1.dim r.words then raise Invalid;
  { means; stds; ids; spectra; shape }

(* One private mapping of the whole file, float64 in the host's order;
   the descriptor is closed once it is made. The spectra are a view of
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
    match read_fields { words = map ~like file; pos = 0; rsum = seed } key with
    | image -> Some image
    | exception (Invalid | Failure _ | Sys_error _ | Unix.Unix_error _) -> None
