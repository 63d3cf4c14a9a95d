(* An in-memory span recorder for the traced run. Each span has a name,
   start and end, the span that caused it and a per-query request id.
   A recorder belongs to one thread or domain; recorders are merged
   when the run ends. With no recorder ([None]) a span costs nothing. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  request : int;  (** 0 outside any request *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  mutable spans : span list;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable request : int;
}

let ids = Atomic.make 1
let requests = Atomic.make 1
let create () = { spans = []; stack = []; request = 0 }

let with_span t name f =
  match t with
  | None -> f ()
  | Some r ->
    let id = Atomic.fetch_and_add ids 1 in
    let parent = match r.stack with p :: _ -> p | [] -> 0 in
    r.stack <- id :: r.stack;
    let start_ns = Measure.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let stop_ns = Measure.now_ns () in
        r.stack <- List.tl r.stack;
        r.spans <-
          { id; parent; request = r.request; name; start_ns; stop_ns }
          :: r.spans)
      f

let new_request () = Atomic.fetch_and_add requests 1

(* Runs [f] as request [id] (default a fresh one): every span it opens
   carries that id. *)
let with_request ?id t f =
  match t with
  | None -> f ()
  | Some r ->
    let saved = r.request in
    r.request <- (match id with Some id -> id | None -> new_request ());
    Fun.protect ~finally:(fun () -> r.request <- saved) f

let duration_s s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

let merge ts = List.concat_map (fun t -> t.spans) ts

(* Self time: the span's duration minus the time its children cover.
   Children of one recorder never overlap, so their durations add. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (duration_s s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  fun s ->
    Float.max 0.
      (duration_s s -. Option.value ~default:0. (Hashtbl.find_opt child s.id))

let durations spans name =
  Array.of_list
    (List.filter_map (fun s -> if s.name = name then Some (duration_s s) else None) spans)

(* One JSON object per line, in start order; times relative to the
   first span. *)
let write spans path =
  let spans =
    List.sort (fun a b -> Int64.compare a.start_ns b.start_ns) spans
  in
  let base = match spans with s :: _ -> s.start_ns | [] -> 0L in
  let self = self_times spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"request\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"self_ns\":%.0f}\n"
            s.id s.parent s.request s.name (Int64.sub s.start_ns base)
            (Int64.sub s.stop_ns base) (self s *. 1e9))
        spans)
