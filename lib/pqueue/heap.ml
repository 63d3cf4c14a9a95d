type cell = { mutable key : float }

let cell () = { key = 0. }

type 'a t = {
  mutable keys : float array;
  mutable ties : int array;
  mutable seqs : int array;  (* insertion numbers: the last tie-break *)
  mutable states : int array;
  mutable values : 'a array;  (* empty until the first push *)
  mutable count : int;
  mutable next : int;  (* the next insertion number *)
}

let create () =
  {
    keys = [||];
    ties = [||];
    seqs = [||];
    states = [||];
    values = [||];
    count = 0;
    next = 0;
  }

let is_empty h = h.count = 0
let size h = h.count

(* The value array is created by the first push, filled with that
   value, so no slot ever needs a placeholder (no ['a option]). *)
let grow h v =
  let capacity = Array.length h.keys in
  if h.count = capacity then begin
    let fresh = Int.max 16 (2 * capacity) in
    let keys = Array.create_float fresh in
    let ties = Array.make fresh 0 in
    let seqs = Array.make fresh 0 in
    let states = Array.make fresh 0 in
    let values = Array.make fresh v in
    Array.blit h.keys 0 keys 0 capacity;
    Array.blit h.ties 0 ties 0 capacity;
    Array.blit h.seqs 0 seqs 0 capacity;
    Array.blit h.states 0 states 0 capacity;
    Array.blit h.values 0 values 0 capacity;
    h.keys <- keys;
    h.ties <- ties;
    h.seqs <- seqs;
    h.states <- states;
    h.values <- values
  end

(* Entries order by (key, tie, insertion number) lexicographically:
   equal-key entries pop in a caller-chosen order, and entries equal in
   both pop first in, first out — the order of a stable sort. *)
let[@inline] before h key tie seq j =
  let kj = Array.unsafe_get h.keys j in
  key < kj
  || key = kj
     &&
     let tj = Array.unsafe_get h.ties j in
     tie < tj || (tie = tj && seq < Array.unsafe_get h.seqs j)

let[@inline] move h ~src ~dst =
  Array.unsafe_set h.keys dst (Array.unsafe_get h.keys src);
  Array.unsafe_set h.ties dst (Array.unsafe_get h.ties src);
  Array.unsafe_set h.seqs dst (Array.unsafe_get h.seqs src);
  Array.unsafe_set h.states dst (Array.unsafe_get h.states src);
  Array.unsafe_set h.values dst (Array.unsafe_get h.values src)

let[@inline] place h i key tie seq state v =
  Array.unsafe_set h.keys i key;
  Array.unsafe_set h.ties i tie;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.states i state;
  Array.unsafe_set h.values i v

(* Sift-up by a moving hole: parents that order after the new entry
   move down, and the entry lands where the last one stopped. *)
let[@inline] insert h key tie state v =
  grow h v;
  let seq = h.next in
  h.next <- seq + 1;
  let i = ref h.count in
  h.count <- h.count + 1;
  while !i > 0 && before h key tie seq ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    move h ~src:parent ~dst:!i;
    i := parent
  done;
  place h !i key tie seq state v

let push h key v = insert h key 0 0 v
let push_cell h c ~tie ~state v = insert h c.key tie state v

let check h = if h.count = 0 then invalid_arg "Heap: empty"
let top h = check h; Array.unsafe_get h.values 0
let top_state h = check h; Array.unsafe_get h.states 0
let top_key h = check h; Array.unsafe_get h.keys 0

(* Remove the root: the last entry sifts down from the root's hole. *)
let drop h =
  check h;
  let last = h.count - 1 in
  h.count <- last;
  if last > 0 then begin
    let key = Array.unsafe_get h.keys last
    and tie = Array.unsafe_get h.ties last
    and seq = Array.unsafe_get h.seqs last
    and state = Array.unsafe_get h.states last
    and v = Array.unsafe_get h.values last in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < last
             && before h (Array.unsafe_get h.keys r) (Array.unsafe_get h.ties r)
                  (Array.unsafe_get h.seqs r) l
          then r
          else l
        in
        if before h key tie seq c then continue := false
        else begin
          move h ~src:c ~dst:!i;
          i := c
        end
      end
    done;
    place h !i key tie seq state v
  end

let pop_min h =
  if h.count = 0 then None
  else begin
    let key = h.keys.(0) and v = h.values.(0) in
    drop h;
    Some (key, v)
  end
