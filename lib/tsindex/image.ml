module Flat = Simq_dsp.Flat
module Relation = Simq_storage.Relation

(* Every field is one little-endian 64-bit word: ints as themselves,
   floats as their IEEE bits. *)
let magic = Bytes.get_int64_le (Bytes.of_string "SIMQPREP") 0

(* Bump it whenever a cold open would compute other bits or another
   tree from the same series: the normal form, the FFT, the feature
   configuration and map, [max_fill] or the STR bulk load. An image
   keyed by the old version is then ignored and rewritten. *)
let version = 2L

type key = {
  count : int;
  n : int;
  digest : int64;
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

let key r =
  let tuples = Relation.to_array r in
  let h = ref seed in
  for i = 0 to Array.length tuples - 1 do
    let s = tuples.(i).Relation.data in
    for t = 0 to Array.length s - 1 do
      h := mix !h (Int64.bits_of_float s.(t))
    done
  done;
  {
    count = Array.length tuples;
    n =
      (if Array.length tuples = 0 then 0
       else Array.length tuples.(0).Relation.data);
    digest = !h;
  }

let header key =
  [
    magic;
    version;
    Int64.of_int key.count;
    Int64.of_int key.n;
    key.digest;
  ]

(* The image holds enough to rebuild every series (each normal form's
   spectrum, mean and std), so it may let in no one the relation
   file's own bits keep out: it carries those bits, less the group's
   when its group is not the file's. *)
let perm ~like (st : Unix.stats) =
  let bits = like.Unix.st_perm land 0o777 in
  if st.Unix.st_gid = like.Unix.st_gid then bits else bits land 0o707

(* Bulk fields move through one buffer of [chunk] words. *)
let chunk = 8192

(* --- writing -------------------------------------------------------------- *)

type writer = { oc : out_channel; wbuf : Bytes.t; mutable wsum : int64 }

let put w v =
  Bytes.set_int64_le w.wbuf 0 v;
  output w.oc w.wbuf 0 8;
  w.wsum <- mix w.wsum v

let put_int w i = put w (Int64.of_int i)

let put_ints w a =
  put_int w (Array.length a);
  Array.iter (put_int w) a

let put_floats w (a : float array) =
  let h = ref w.wsum and pos = ref 0 in
  while !pos < Array.length a do
    let c = Int.min chunk (Array.length a - !pos) in
    for i = 0 to c - 1 do
      let v = Int64.bits_of_float a.(!pos + i) in
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
  put_floats w (Array.map (fun (e : Dataset.entry) -> e.Dataset.mean) entries);
  put_floats w (Array.map (fun (e : Dataset.entry) -> e.Dataset.std) entries);
  for s = 0 to Array.length entries - 1 do
    put_int w (Dataset.id_at dataset s)
  done;
  put_floats w (Dataset.spectra dataset);
  put_int w (Array.length shape);
  Array.iter (put_ints w) shape;
  (* The trailer: the sum of every word before it. *)
  Bytes.set_int64_le w.wbuf 0 w.wsum;
  output w.oc w.wbuf 0 8

(* Written beside the final name and renamed over it, so a reader
   sees the old image or the new one, never a part. Created readable
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

type reader = { ic : in_channel; rbuf : Bytes.t; mutable rsum : int64 }

let get r =
  really_input r.ic r.rbuf 0 8;
  let v = Bytes.get_int64_le r.rbuf 0 in
  r.rsum <- mix r.rsum v;
  v

(* An int in [lo, hi]. *)
let get_int r ~lo ~hi =
  let v = get r in
  if Int64.compare v (Int64.of_int lo) < 0
     || Int64.compare v (Int64.of_int hi) > 0
  then raise Invalid;
  Int64.to_int v

let get_floats r len =
  let a = Array.create_float len in
  let h = ref r.rsum and pos = ref 0 in
  while !pos < len do
    let c = Int.min chunk (len - !pos) in
    really_input r.ic r.rbuf 0 (8 * c);
    for i = 0 to c - 1 do
      let v = Bytes.get_int64_le r.rbuf (8 * i) in
      h := mix !h v;
      a.(!pos + i) <- Int64.float_of_bits v
    done;
    pos := !pos + c
  done;
  r.rsum <- !h;
  a

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
  let spectra = get_floats r (2 * key.n * count) in
  (* With every fan-out at least 2, 64 levels would hold over 2^63
     entries. *)
  let levels = get_int r ~lo:1 ~hi:64 in
  let shape =
    Array.init levels (fun _ ->
        let m = get_int r ~lo:1 ~hi:count in
        Array.init m (fun _ -> get_int r ~lo:1 ~hi:count))
  in
  let sum = r.rsum in
  really_input r.ic r.rbuf 0 8;
  if not (Int64.equal (Bytes.get_int64_le r.rbuf 0) sum) then raise Invalid;
  (match input_char r.ic with
  | _ -> raise Invalid
  | exception End_of_file -> ());
  { means; stds; ids; spectra; shape }

let read ~like file key =
  match open_in_bin file with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match
          let st = Unix.fstat (Unix.descr_of_in_channel ic) in
          if st.Unix.st_perm land lnot (perm ~like st) <> 0 then
            raise Invalid;
          read_fields { ic; rbuf = Bytes.create (8 * chunk); rsum = seed } key
        with
        | image -> Some image
        | exception
            (Invalid | End_of_file | Sys_error _ | Unix.Unix_error _) ->
          None)
