module Series = Simq_series.Series

type tuple = {
  id : int;
  name : string;
  data : Series.t;
}

type t = {
  name : string;
  page_size : int;
  mutable tuples : tuple array;  (* amortised growable buffer *)
  mutable count : int;
  mutable offsets : int array;  (* byte offset of each tuple *)
  mutable next_offset : int;
  stats : Io_stats.t;
  pool : Buffer_pool.t;
}

(* A float is 8 bytes; a modest per-tuple header covers id, name and
   slot bookkeeping. *)
let tuple_bytes tuple = (8 * Array.length tuple.data) + 32

let create ?(page_size = 4096) ?(pool_pages = 64) ~name () =
  if page_size <= 64 then invalid_arg "Relation.create: page_size too small";
  let stats = Io_stats.create () in
  {
    name;
    page_size;
    tuples = [||];
    count = 0;
    offsets = [||];
    next_offset = 0;
    stats;
    pool = Buffer_pool.create ~capacity:pool_pages ~stats;
  }

let name t = t.name
let cardinality t = t.count

let ensure_capacity t =
  let capacity = Array.length t.tuples in
  if t.count = capacity then begin
    let fresh = max 16 (2 * capacity) in
    let tuples =
      Array.make fresh { id = -1; name = ""; data = [| 0. |] }
    in
    let offsets = Array.make fresh 0 in
    Array.blit t.tuples 0 tuples 0 capacity;
    Array.blit t.offsets 0 offsets 0 capacity;
    t.tuples <- tuples;
    t.offsets <- offsets
  end

let insert t ~name data =
  let data = Series.validate data in
  ensure_capacity t;
  let tuple = { id = t.count; name; data } in
  t.tuples.(t.count) <- tuple;
  t.offsets.(t.count) <- t.next_offset;
  t.next_offset <- t.next_offset + tuple_bytes tuple;
  t.count <- t.count + 1;
  Io_stats.record_page_write t.stats;
  tuple

let of_series ?page_size ~name batch =
  let t = create ?page_size ~name () in
  Array.iteri
    (fun idx data -> ignore (insert t ~name:(Printf.sprintf "seq-%04d" idx) data))
    batch;
  t

let page_of t offset = offset / t.page_size

(* Touch every page the tuple spans. *)
let touch_tuple ?budget t idx =
  let first = page_of t t.offsets.(idx) in
  let last = page_of t (t.offsets.(idx) + tuple_bytes t.tuples.(idx) - 1) in
  for page = first to last do
    ignore (Buffer_pool.touch ?budget t.pool page)
  done

let get ?budget t id =
  if id < 0 || id >= t.count then raise Not_found;
  touch_tuple ?budget t id;
  t.tuples.(id)

let fold t ~init ~f =
  let acc = ref init in
  for idx = 0 to t.count - 1 do
    touch_tuple t idx;
    acc := f !acc t.tuples.(idx)
  done;
  !acc

let iter t ~f = fold t ~init:() ~f:(fun () tuple -> f tuple)
let to_array t = Array.init t.count (fun idx -> t.tuples.(idx))

let pages t =
  if t.next_offset = 0 then 0
  else 1 + page_of t (t.next_offset - 1)

let stats t = t.stats

type snapshot = {
  snap_name : string;
  snap_tuples : tuple array;
}

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Marshal.to_channel oc
        { snap_name = t.name; snap_tuples = to_array t }
        [])

let load ?page_size ?pool_pages path =
  let ic = open_in_bin path in
  let snapshot =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> (Marshal.from_channel ic : snapshot))
  in
  let t = create ?page_size ?pool_pages ~name:snapshot.snap_name () in
  (* The snapshot's tuples are adopted, in one pass that validates,
     numbers and lays them out as {!insert} would; the stats stay zero. *)
  let tuples = snapshot.snap_tuples in
  let offsets = Array.make (Array.length tuples) 0 in
  Array.iteri
    (fun idx (tuple : tuple) ->
      ignore (Series.validate tuple.data);
      if tuple.id <> idx then tuples.(idx) <- { tuple with id = idx };
      offsets.(idx) <- t.next_offset;
      t.next_offset <- t.next_offset + tuple_bytes tuple)
    tuples;
  t.tuples <- tuples;
  t.offsets <- offsets;
  t.count <- Array.length tuples;
  t
