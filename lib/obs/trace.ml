let enabled = Atomic.make false
let on () = Atomic.get enabled
let set_enabled b = Atomic.set enabled b

(* --- request-scoped correlation ------------------------------------------

   Request ids are allocated unconditionally (one atomic increment per
   query) so qlog/profile correlation works even when span tracing is
   off. The ambient id lives in two places: a per-domain DLS cell for
   the domain that owns the request, and an optional process-global
   cell for the serialized-execution case (the serve daemon's engine
   mutex, the CLI's single query) where pool worker domains fanning
   out on behalf of the request must see it too. *)

let next_request = Atomic.make 1
let new_request_id () = Atomic.fetch_and_add next_request 1
let global_request = Atomic.make 0
let request_key = Domain.DLS.new_key (fun () -> ref 0)

let current_request () =
  let local = Domain.DLS.get request_key in
  if !local <> 0 then !local else Atomic.get global_request

let with_request ?(global = true) id f =
  let local = Domain.DLS.get request_key in
  let saved_local = !local in
  let saved_global = if global then Atomic.get global_request else 0 in
  local := id;
  if global then Atomic.set global_request id;
  Fun.protect
    ~finally:(fun () ->
      local := saved_local;
      if global then Atomic.set global_request saved_global)
    f

(* Base timestamp so exported [ts] values start near zero. *)
let epoch_ns = Monotonic_clock.now ()

type event = {
  ev_name : string;
  ev_ts_ns : int64; (* start, relative to [epoch_ns] *)
  ev_dur_ns : int64;
  ev_tid : int;
  ev_id : int;
  ev_parent : int; (* 0 = root *)
  ev_trace : int; (* 0 = no ambient request *)
}

type buffer = {
  tid : int;
  mutable events : event list; (* newest first *)
  mutable open_stack : int list; (* ids of open spans, innermost first *)
}

let registry_mutex = Mutex.create ()
let buffers : buffer list ref = ref []
let next_id = Atomic.make 1

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b =
        { tid = (Domain.self () :> int); events = []; open_stack = [] }
      in
      Mutex.lock registry_mutex;
      buffers := b :: !buffers;
      Mutex.unlock registry_mutex;
      b)

type span =
  | Disabled
  | Active of {
      id : int;
      parent : int;
      name : string;
      start_ns : int64;
      trace : int;
      buf : buffer;
    }

let start name =
  if not (on ()) then Disabled
  else begin
    let buf = Domain.DLS.get buffer_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match buf.open_stack with [] -> 0 | p :: _ -> p in
    buf.open_stack <- id :: buf.open_stack;
    Active
      {
        id;
        parent;
        name;
        start_ns = Monotonic_clock.now ();
        trace = current_request ();
        buf;
      }
  end

let finish = function
  | Disabled -> ()
  | Active { id; parent; name; start_ns; trace; buf } ->
      let now = Monotonic_clock.now () in
      (* Pop this span (tolerate out-of-order finishes by filtering). *)
      (buf.open_stack <-
         (match buf.open_stack with
         | top :: rest when top = id -> rest
         | stack -> List.filter (fun i -> i <> id) stack));
      buf.events <-
        {
          ev_name = name;
          ev_ts_ns = Int64.sub start_ns epoch_ns;
          ev_dur_ns = Int64.sub now start_ns;
          ev_tid = buf.tid;
          ev_id = id;
          ev_parent = parent;
          ev_trace = trace;
        }
        :: buf.events

let with_span name f =
  let s = start name in
  Fun.protect ~finally:(fun () -> finish s) f

let all_buffers () =
  Mutex.lock registry_mutex;
  let bs = !buffers in
  Mutex.unlock registry_mutex;
  bs

let open_spans () =
  List.fold_left (fun acc b -> acc + List.length b.open_stack) 0 (all_buffers ())

let event_count () =
  List.fold_left (fun acc b -> acc + List.length b.events) 0 (all_buffers ())

let event_traces () =
  List.concat_map (fun b -> List.map (fun e -> e.ev_trace) b.events)
    (all_buffers ())

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let us_of_ns ns = Int64.to_float ns /. 1e3

let export oc =
  let events =
    List.concat_map (fun b -> b.events) (all_buffers ())
    |> List.sort (fun a b -> Int64.compare a.ev_ts_ns b.ev_ts_ns)
  in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then output_string oc ",";
      Printf.fprintf oc
        "\n\
         {\"name\":\"%s\",\"cat\":\"simq\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"trace\":%d}}"
        (json_escape e.ev_name) (us_of_ns e.ev_ts_ns)
        (us_of_ns e.ev_dur_ns) e.ev_tid e.ev_id e.ev_parent e.ev_trace)
    events;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"

let export_file path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> export oc)

let reset () =
  List.iter
    (fun b ->
      b.events <- [];
      b.open_stack <- [])
    (all_buffers ());
  Atomic.set next_id 1
