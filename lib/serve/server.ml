module Metrics = Simq_obs.Metrics
module Qlog = Simq_obs.Qlog
module Profile = Simq_obs.Profile
module Trace = Simq_obs.Trace
module Slow = Simq_obs.Slow

(* Serve-side traffic counters: one increment per protocol query on
   the worker thread, so the merged totals are trivially
   domain-invariant. They feed the history window's qps and shed
   rate. *)
let m_queries =
  Metrics.counter ~help:"Queries executed by the serve daemon (any outcome)"
    "simq_serve_queries_total"

let m_shed =
  Metrics.counter ~help:"Queries shed by the serve daemon's in-flight cap"
    "simq_serve_shed_total"

(* A client that disappears mid-response must surface as EPIPE on the
   write, not as a process-killing SIGPIPE. *)
let ignore_sigpipe =
  lazy
    (try
       ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore : Sys.signal_behavior)
     with Invalid_argument _ -> ())

type t = {
  listener : Unix.file_descr;
  port : int;
  engine : Engine.t;
  policy : Simq_admission.t;
  qlog : Qlog.t option;
  slow : Slow.t option;
  max_inflight : int option;
  max_line_bytes : int;
  stopping : bool Atomic.t;
  inflight : int Atomic.t;
  n_served : int Atomic.t;
  n_shed : int Atomic.t;
  n_errors : int Atomic.t;
  n_connections : int Atomic.t;
  engine_mutex : Mutex.t;
  conns_mutex : Mutex.t;
  mutable conns : Unix.file_descr list;
  mutable workers : Thread.t list;
      (** the live workers, under [conns_mutex]: each removes itself *)
  mutable accept_thread : Thread.t option;
}

type stats = {
  served : int;
  shed : int;
  errors : int;
  connections : int;
  workers : int;
  in_flight : int;
}

let stats t =
  {
    served = Atomic.get t.n_served;
    shed = Atomic.get t.n_shed;
    errors = Atomic.get t.n_errors;
    connections = Atomic.get t.n_connections;
    workers =
      Mutex.protect t.conns_mutex (fun () -> List.length t.workers);
    in_flight = Atomic.get t.inflight;
  }

let port t = t.port

let request_drain t =
  if not (Atomic.exchange t.stopping true) then begin
    (* On Linux, shutting a listening socket down fails the blocked
       [accept] in the accept thread, which then observes [stopping]
       and exits — the same wake-up the metrics endpoint uses. *)
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (* Waking every blocked read with EOF: in-flight queries still
       finish and their responses still flush (the write side is left
       open); the worker exits at its next read. *)
    let conns =
      Mutex.protect t.conns_mutex (fun () -> t.conns)
    in
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      conns
  end

(* ------------------------------------------------------------------ *)
(* Per-connection worker                                               *)

(* Unwinds one connection: EOF, peer reset, write failure, a timed-out
   idle read, or the drain. Never escapes the worker. *)
exception Conn_done

let write_line fd line =
  let line = line ^ "\n" in
  let n = String.length line in
  let rec go off =
    if off < n then
      match Unix.write_substring fd line off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ ->
        (* EPIPE/ECONNRESET from a gone peer, EAGAIN from a slow one
           that blew the write timeout: the connection is done. *)
        raise Conn_done
  in
  go 0

(* The load-shed path: refused through the admission policy before the
   engine mutex is even contended — no page read, no execution-side
   counter moves. *)
let shed_response t ~seq ~trace ~spec ~inflight ~limit =
  Atomic.incr t.n_shed;
  Metrics.incr m_shed;
  let reject = Simq_admission.shed t.policy ~inflight ~limit in
  let e = Simq_admission.error_of_reject reject in
  let note = Engine.note () in
  Engine.refuse note ~trace ~spec e;
  Option.iter (fun qlog -> Qlog.log qlog (Engine.qlog_entry note)) t.qlog;
  Protocol.result_line ~event:"simq.serve" ~seq note
    (Error (Simq_fault.Error.to_string e))

let run_query t ~seq ~profile ~spec =
  (* One request id per protocol query line — the correlation key of
     its qlog line, profile root and trace spans; allocated before the
     shed check so even a shed line is attributable. *)
  let trace = Trace.new_request_id () in
  let cur = Atomic.fetch_and_add t.inflight 1 in
  let sheds =
    match t.max_inflight with Some m -> cur >= m | None -> false
  in
  if sheds then begin
    Atomic.decr t.inflight;
    shed_response t ~seq ~trace ~spec ~inflight:(cur + 1)
      ~limit:(Option.get t.max_inflight)
  end
  else
    Fun.protect
      ~finally:(fun () -> Atomic.decr t.inflight)
      (fun () ->
        (* The slow store needs a rendered tree for every query, so it
           forces a profile; the response only carries one when the
           client asked. *)
        let prof =
          if profile || t.slow <> None then Some (Profile.create ()) else None
        in
        let note = Engine.note () in
        let result =
          Mutex.protect t.engine_mutex (fun () ->
              (* Engine execution is serialized under the mutex, so
                 publishing the request id process-wide is race-free
                 and pool worker domains fanning out for this query
                 observe it — and the qlog's global counter bracket
                 sees this query alone. *)
              Trace.with_request trace (fun () ->
                  let result =
                    match
                      Engine.exec ?qlog:t.qlog ?profile:prof ~note
                        t.engine spec
                    with
                    | Ok o -> Ok o
                    | Error e -> Error (Simq_cli.message e)
                    | exception e ->
                      (* Worker isolation: anything escaping the engine
                         becomes an exit-4 fault line, never a dead
                         thread. *)
                      Error (Printexc.to_string e)
                  in
                  (* After the delta bracket, so qlog deltas keep
                     showing only execution-side families (and a
                     rejected query's stay empty). *)
                  Metrics.incr m_queries;
                  Simq_report.Timer.observe note.Engine.note_duration_s;
                  result))
        in
        Atomic.incr t.n_served;
        (match t.slow with
        | Some store ->
          Slow.observe store
            {
              Slow.seq;
              trace_id = Option.value note.Engine.note_trace ~default:0;
              digest = Engine.note_digest note;
              spec = note.Engine.note_spec;
              duration_s = note.Engine.note_duration_s;
              profile =
                (match prof with Some p -> Profile.render p | None -> "");
            }
        | None -> ());
        if Result.is_error result then Atomic.incr t.n_errors;
        Protocol.result_line ~event:"simq.serve" ~seq
          ?profile:(if profile then Option.map Profile.to_json prof else None)
          note result)

let handle_line t fd ~next_seq line =
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  if line = "" then ()
  else begin
    let seq = next_seq () in
    match Protocol.parse_request line with
    | Error msg ->
      Atomic.incr t.n_errors;
      write_line fd
        (Protocol.error_line ~seq ~outcome:"usage" ~exit_code:1
           ~message:("bad request line: " ^ msg) ())
    | Ok Protocol.Ping -> write_line fd (Protocol.pong_line ~seq)
    | Ok Protocol.Slow -> (
      match t.slow with
      | Some store -> write_line fd (Protocol.slow_line ~seq (Slow.to_json store))
      | None ->
        Atomic.incr t.n_errors;
        write_line fd
          (Protocol.error_line ~seq ~outcome:"usage" ~exit_code:1
             ~message:"no slow-query store on this daemon (start with --slow-k)"
             ()))
    | Ok Protocol.Shutdown ->
      write_line fd (Protocol.shutdown_line ~seq);
      request_drain t;
      raise Conn_done
    | Ok (Protocol.Query { profile; spec }) ->
      if Atomic.get t.stopping then raise Conn_done;
      write_line fd (run_query t ~seq ~profile ~spec)
  end

let worker t fd =
  let seq = ref 0 in
  let next_seq () =
    let s = !seq in
    incr seq;
    s
  in
  (* The unread bytes are [buf.[start .. stop-1]], and none of
     [buf.[start .. scanned-1]] is a newline: each line is cut out
     where it lies, so a byte is scanned once, and what is left moves to
     the front at most once per read. *)
  let read_size = 8192 in
  let buf = ref (Bytes.create (2 * read_size)) in
  let start = ref 0 and stop = ref 0 and scanned = ref 0 in
  let discarding = ref false in
  (* Room for one read after [stop]. *)
  let reserve () =
    if Bytes.length !buf - !stop < read_size then begin
      let live = !stop - !start in
      let dst =
        if live + read_size <= Bytes.length !buf then !buf
        else Bytes.create (2 * (live + read_size))
      in
      Bytes.blit !buf !start dst 0 live;
      buf := dst;
      scanned := !scanned - !start;
      start := 0;
      stop := live
    end
  in
  (* The first complete unread line, if any. *)
  let take_line () =
    let rec find i =
      if i >= !stop then None
      else if Bytes.get !buf i = '\n' then Some i
      else find (i + 1)
    in
    match find !scanned with
    | None ->
      scanned := !stop;
      None
    | Some i ->
      let line = Bytes.sub_string !buf !start (i - !start) in
      start := i + 1;
      scanned := i + 1;
      Some line
  in
  let rec drain_lines () =
    match take_line () with
    | Some line ->
      (* When discarding, this newline ends the oversized line; the
         bytes before it belong to it and are dropped. *)
      if !discarding then discarding := false else handle_line t fd ~next_seq line;
      drain_lines ()
    | None ->
      if !stop - !start > t.max_line_bytes then begin
        if not !discarding then begin
          discarding := true;
          Atomic.incr t.n_errors;
          write_line fd
            (Protocol.error_line ~seq:(next_seq ()) ~outcome:"usage"
               ~exit_code:1
               ~message:
                 (Printf.sprintf "request line exceeds %d bytes; discarded"
                    t.max_line_bytes)
               ())
        end;
        start := !stop
      end
  in
  let rec read_loop () =
    if Atomic.get t.stopping && !stop = !start then ()
    else begin
      reserve ();
      match Unix.read fd !buf !stop read_size with
      | 0 -> ()
      | n ->
        stop := !stop + n;
        drain_lines ();
        read_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_loop ()
      | exception Unix.Unix_error _ ->
        (* Idle timeout (EAGAIN), peer reset, or the drain: reap. *)
        ()
    end
  in
  (* The accept thread lists this thread in [workers] under the mutex
     it creates it under, so the last action below finds it listed. *)
  let self = Thread.id (Thread.self ()) in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.conns_mutex (fun () ->
          t.conns <- List.filter (fun c -> c != fd) t.conns);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.protect t.conns_mutex (fun () ->
          t.workers <- List.filter (fun w -> Thread.id w <> self) t.workers))
    (fun () -> try read_loop () with Conn_done -> () | _ -> ())

(* ------------------------------------------------------------------ *)
(* Accept loop and lifecycle                                           *)

let accept_loop t ~idle_timeout ~write_timeout =
  let rec loop () =
    match Unix.accept t.listener with
    | fd, _ ->
      if Atomic.get t.stopping then begin
        (try Unix.close fd with Unix.Unix_error _ -> ())
      end
      else begin
        (try
           (match idle_timeout with
           | Some s -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
           | None -> ());
           match write_timeout with
           | Some s -> Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
           | None -> ()
         with Unix.Unix_error _ -> ());
        Atomic.incr t.n_connections;
        Mutex.protect t.conns_mutex (fun () ->
            t.conns <- fd :: t.conns;
            t.workers <- Thread.create (worker t) fd :: t.workers);
        loop ()
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if not (Atomic.get t.stopping) then loop ()
    | exception Unix.Unix_error ((Unix.EINVAL | Unix.EBADF), _, _) ->
      (* The listener was shut down or closed: drain. *)
      ()
    | exception Unix.Unix_error _ ->
      (* Transient accept failure (ECONNABORTED, fd pressure): a
         long-running daemon backs off instead of dying. *)
      if not (Atomic.get t.stopping) then begin
        Thread.delay 0.05;
        loop ()
      end
  in
  loop ()

let start ?max_inflight ?(max_line_bytes = Protocol.max_line_bytes)
    ?idle_timeout ?write_timeout ?(policy = Simq_admission.default) ?qlog
    ?slow_k ~engine ~port () =
  Lazy.force ignore_sigpipe;
  (match max_inflight with
  | Some m when m < 0 ->
    invalid_arg "Simq_serve.Server: max_inflight must be >= 0"
  | _ -> ());
  let slow =
    match slow_k with
    | None -> None
    | Some k ->
      if k < 1 then invalid_arg "Simq_serve.Server: slow_k must be >= 1";
      Some (Slow.create ~k)
  in
  if max_line_bytes < 1 then
    invalid_arg "Simq_serve.Server: max_line_bytes must be positive";
  List.iter
    (fun (name, v) ->
      match v with
      | Some s when s <= 0. ->
        invalid_arg (Printf.sprintf "Simq_serve.Server: %s must be > 0" name)
      | _ -> ())
    [ ("idle_timeout", idle_timeout); ("write_timeout", write_timeout) ];
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen listener 64
   with
  | () -> ()
  | exception e ->
    (try Unix.close listener with Unix.Unix_error _ -> ());
    raise e);
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let t =
    {
      listener;
      port;
      engine;
      policy;
      qlog;
      slow;
      max_inflight;
      max_line_bytes;
      stopping = Atomic.make false;
      inflight = Atomic.make 0;
      n_served = Atomic.make 0;
      n_shed = Atomic.make 0;
      n_errors = Atomic.make 0;
      n_connections = Atomic.make 0;
      engine_mutex = Mutex.create ();
      conns_mutex = Mutex.create ();
      conns = [];
      workers = [];
      accept_thread = None;
    }
  in
  t.accept_thread <-
    Some (Thread.create (fun () -> accept_loop t ~idle_timeout ~write_timeout) ());
  t

let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  (* Workers are spawned only by the accept thread, so once it has
     exited this snapshot holds every worker still running; one that
     finishes after it is joined at once. *)
  let workers = Mutex.protect t.conns_mutex (fun () -> t.workers) in
  List.iter Thread.join workers

let stop t =
  request_drain t;
  wait t;
  try Unix.close t.listener with Unix.Unix_error _ -> ()

let with_server ?max_inflight ?max_line_bytes ?idle_timeout ?write_timeout
    ?policy ?qlog ?slow_k ~engine ~port f =
  let t =
    start ?max_inflight ?max_line_bytes ?idle_timeout ?write_timeout ?policy
      ?qlog ?slow_k ~engine ~port ()
  in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)
