module A = Bigarray.Array1

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t

(* Four lanes and the word count, in the host's order (the files are
   read and written on little-endian hosts only). *)
type sum = Bytes.t

external absorb_buffer : sum -> buffer -> int -> int -> bool
  = "simq_words_absorb"
[@@noalloc]

external absorb_bytes : sum -> Bytes.t -> int -> int -> bool
  = "simq_words_absorb_bytes"
[@@noalloc]

external sum_value : sum -> (int64[@unboxed])
  = "simq_words_sum_byte" "simq_words_sum"
[@@noalloc]

external to_bytes : buffer -> int -> Bytes.t -> int -> int -> unit
  = "simq_words_to_bytes"
[@@noalloc]

let seed = 0x9e3779b97f4a7c15L

let create () =
  let s = Bytes.make 40 '\000' in
  for lane = 0 to 3 do
    Bytes.set_int64_ne s (8 * lane) (Int64.add seed (Int64.of_int lane))
  done;
  s

let absorb s buf ~pos ~len =
  if pos < 0 || len < 0 || pos > A.dim buf - len then
    invalid_arg "Words.absorb: range outside the buffer";
  absorb_buffer s buf pos len

let value = sum_value
let get buf i = Int64.bits_of_float (A.get buf i)

let string buf ~pos ~len =
  if pos < 0 || len < 0 || pos > (8 * A.dim buf) - len then
    invalid_arg "Words.string: range outside the buffer";
  let b = Bytes.create len in
  to_bytes buf pos b 0 len;
  Bytes.unsafe_to_string b

let padded len = (len + 7) / 8

(* --- writing -------------------------------------------------------------- *)

let chunk = 8192

type writer = {
  oc : out_channel option;
  buf : Bytes.t;  (* [chunk] words *)
  mutable used : int;  (* bytes *)
  state : sum;
}

let writer oc =
  { oc; buf = Bytes.create (8 * chunk); used = 0; state = create () }

let flush w =
  ignore (absorb_bytes w.state w.buf 0 (w.used / 8) : bool);
  Option.iter (fun oc -> output oc w.buf 0 w.used) w.oc;
  w.used <- 0

let word w v =
  if w.used = Bytes.length w.buf then flush w;
  Bytes.set_int64_le w.buf w.used v;
  w.used <- w.used + 8

let int w i = word w (Int64.of_int i)
let float w x = word w (Int64.bits_of_float x)

let words w buf ~pos ~len =
  if pos < 0 || len < 0 || pos > A.dim buf - len then
    invalid_arg "Words.words: range outside the buffer";
  let pos = ref pos and left = ref len in
  while !left > 0 do
    if w.used = Bytes.length w.buf then flush w;
    let c = Int.min !left ((Bytes.length w.buf - w.used) / 8) in
    to_bytes buf (8 * !pos) w.buf w.used (8 * c);
    w.used <- w.used + (8 * c);
    pos := !pos + c;
    left := !left - c
  done

let bytes w s =
  let len = String.length s and b = Bytes.create 8 in
  for i = 0 to padded len - 1 do
    Bytes.fill b 0 8 '\000';
    Bytes.blit_string s (8 * i) b 0 (Int.min 8 (len - (8 * i)));
    word w (Bytes.get_int64_le b 0)
  done

let finish w =
  flush w;
  let s = sum_value w.state in
  Option.iter
    (fun oc ->
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 s;
      output oc b 0 8)
    w.oc;
  s
