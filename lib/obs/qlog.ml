(* Structured query log. See qlog.mli. *)

type t = {
  mutable oc : out_channel option;
  (* [oc = None] with [closed = false] means a rotation just renamed
     the live file away: the replacement is opened lazily by the next
     written line, so a log whose last line triggered rotation leaves
     only [path.1] on disk. *)
  mutable closed : bool;
  path : string;
  sample : int;
  slow_ms : float option;
  max_bytes : int option;
  mutable seen : int;
  mutable written : int;
  mutex : Mutex.t;
}

type shard_counts = { fanout : int; pruned : int; degraded : int }

type entry = {
  spec : string;
  digest : string;
  decision : string option;
  path : string option;
  deltas : (string * int) list;
  duration_s : float;
  outcome : string;
  exit_code : int;
  domains : int;
  shards : shard_counts option;
  trace_id : int option;
}

let open_log path =
  open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path

let create ?(sample = 1) ?slow_ms ?max_bytes path =
  if sample < 1 then invalid_arg "Qlog.create: sample must be >= 1";
  (match slow_ms with
  | Some t when t < 0. -> invalid_arg "Qlog.create: slow_ms must be >= 0"
  | _ -> ());
  (match max_bytes with
  | Some b when b < 1 -> invalid_arg "Qlog.create: max_bytes must be >= 1"
  | _ -> ());
  let oc = open_log path in
  {
    oc = Some oc;
    closed = false;
    path;
    sample;
    slow_ms;
    max_bytes;
    seen = 0;
    written = 0;
    mutex = Mutex.create ();
  }

let render_line ~seq entry =
  let opt = function None -> Json.Null | Some s -> Json.Str s in
  Json.to_string
    (Json.Obj
       [
         ("event", Json.Str "simq.qlog");
         ("v", Json.Num 1.);
         ("seq", Json.Num (float_of_int seq));
         ("spec", Json.Str entry.spec);
         ("digest", Json.Str entry.digest);
         ( "trace_id",
           match entry.trace_id with
           | None -> Json.Null
           | Some id -> Json.Num (float_of_int id) );
         ("decision", opt entry.decision);
         ("path", opt entry.path);
         ("duration_ms", Json.Num (entry.duration_s *. 1000.));
         ("outcome", Json.Str entry.outcome);
         ("exit", Json.Num (float_of_int entry.exit_code));
         ("domains", Json.Num (float_of_int entry.domains));
         ( "shards",
           match entry.shards with
           | None -> Json.Null
           | Some s ->
               Json.Obj
                 [
                   ("fanout", Json.Num (float_of_int s.fanout));
                   ("pruned", Json.Num (float_of_int s.pruned));
                   ("degraded", Json.Num (float_of_int s.degraded));
                 ] );
         ( "deltas",
           Json.Obj
             (List.map
                (fun (name, d) -> (name, Json.Num (float_of_int d)))
                entry.deltas) );
       ])

let log t entry =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if not t.closed then begin
        let seq = t.seen in
        t.seen <- t.seen + 1;
        let sampled = seq mod t.sample = 0 in
        let slow =
          match t.slow_ms with
          | Some threshold -> entry.duration_s *. 1000. >= threshold
          | None -> false
        in
        if sampled || slow then (
          let oc =
            match t.oc with
            | Some oc -> oc
            | None ->
                let oc = open_log t.path in
                t.oc <- Some oc;
                oc
          in
          output_string oc (render_line ~seq entry);
          output_char oc '\n';
          flush oc;
          t.written <- t.written + 1;
          (* Size rotation: once the live file reaches the limit it is
             renamed to [path.1] (replacing any previous rotation).
             The fresh file is opened lazily by the next written line —
             a rotation on the final pre-drain line leaves only
             [path.1], a state {!rotated_chain} must accept. [seen]
             keeps counting, so the sampling decision stays a pure
             function of the query sequence number across rotations. *)
          match t.max_bytes with
          | Some limit
            when LargeFile.out_channel_length oc >= Int64.of_int limit ->
              close_out oc;
              Sys.rename t.path (t.path ^ ".1");
              t.oc <- None
          | _ -> ())
      end)

let close t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      t.closed <- true;
      match t.oc with
      | None -> ()
      | Some oc ->
          t.oc <- None;
          close_out oc)

let entries_seen t = t.seen
let lines_written t = t.written

(* The rotation counterpart of the reader side: [path.1] (when it
   exists) holds the lines written immediately before those of [path],
   so reading the pair in this order replays a contiguous tail of the
   line stream. Every pair state is legal — in particular a rotation
   that fired on the final pre-drain line leaves [path.1] with no live
   [path] at all (the replacement file is only created by the next
   written line). *)
let rotated_chain path =
  let prev = path ^ ".1" in
  match (Sys.file_exists prev, Sys.file_exists path) with
  | true, true -> [ prev; path ]
  | true, false -> [ prev ]
  | false, true -> [ path ]
  | false, false -> []

(* ------------------------------------------------------------------ *)
(* Building entries                                                    *)

let sample_key name labels =
  match labels with
  | [] -> name
  | labels ->
      name ^ "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
      ^ "}"

let counter_deltas ~before ~after =
  let totals samples =
    List.filter_map
      (function
        | Metrics.Counter_sample { name; labels; total; _ } ->
            Some (sample_key name labels, total)
        | _ -> None)
      samples
  in
  let before = totals before in
  List.filter_map
    (fun (key, total) ->
      let base = Option.value ~default:0 (List.assoc_opt key before) in
      let delta = total - base in
      if delta > 0 then Some (key, delta) else None)
    (totals after)

(* ------------------------------------------------------------------ *)
(* Offline aggregation                                                 *)

type aggregate = {
  entries : int;
  total_duration_s : float;
  by_path : (string * int) list;
  by_decision : (string * int) list;
  by_outcome : (string * int) list;
  by_fanout : (int * int) list;
  by_trace : (int * float) list;
  top_by_duration : (int * string * float * int) list;
  top_by_pages : (int * string * int) list;
}

let pages_of_deltas json =
  match Json.member "deltas" json with
  | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (key, v) ->
          let family =
            match String.index_opt key '{' with
            | Some i -> String.sub key 0 i
            | None -> key
          in
          if
            family = "simq_buffer_pool_hits_total"
            || family = "simq_buffer_pool_misses_total"
          then acc + int_of_float (Option.value ~default:0. (Json.number v))
          else acc)
        0 fields
  | _ -> 0

let aggregate ?(top = 5) lines =
  let bump key table =
    match List.assoc_opt key !table with
    | Some n -> table := (key, n + 1) :: List.remove_assoc key !table
    | None -> table := (key, 1) :: !table
  in
  let entries = ref 0 in
  let total = ref 0. in
  let paths = ref [] and decisions = ref [] and outcomes = ref [] in
  let fanouts = ref [] in
  let traces = ref [] in
  let by_duration = ref [] and by_pages = ref [] in
  List.iter
    (fun json ->
      match Json.member "event" json with
      | Some (Json.Str "simq.qlog") ->
          incr entries;
          let str field fallback =
            match Json.member field json with
            | Some (Json.Str s) -> s
            | _ -> fallback
          in
          let num field =
            match Json.member field json with
            | Some (Json.Num v) -> v
            | _ -> 0.
          in
          let seq = int_of_float (num "seq") in
          let spec = str "spec" "?" in
          let duration_s = num "duration_ms" /. 1000. in
          total := !total +. duration_s;
          bump (str "path" "-") paths;
          bump (str "decision" "-") decisions;
          bump (str "outcome" "?") outcomes;
          (* Only sharded queries carry a fanout; unsharded lines have
             a null "shards" member and stay out of the breakdown. *)
          (match Json.member "shards" json with
          | Some (Json.Obj _ as s) -> (
              match Json.member "fanout" s with
              | Some (Json.Num f) -> bump (int_of_float f) fanouts
              | _ -> ())
          | _ -> ());
          (* Lines predating the trace_id field (or with it null) stay
             out of the per-trace breakdown; their trace prints as 0
             in the duration table. *)
          let trace =
            match Json.member "trace_id" json with
            | Some (Json.Num id) -> int_of_float id
            | _ -> 0
          in
          if trace <> 0 then (
            let prior =
              Option.value ~default:0. (List.assoc_opt trace !traces)
            in
            traces :=
              (trace, prior +. duration_s) :: List.remove_assoc trace !traces);
          by_duration := (seq, spec, duration_s, trace) :: !by_duration;
          by_pages := (seq, spec, pages_of_deltas json) :: !by_pages
      | _ -> ())
    lines;
  let descending_counts table =
    List.sort
      (fun (ka, a) (kb, b) ->
        match compare b a with 0 -> compare ka kb | c -> c)
      !table
  in
  let take n l =
    let rec go n = function
      | x :: rest when n > 0 -> x :: go (n - 1) rest
      | _ -> []
    in
    go n l
  in
  {
    entries = !entries;
    total_duration_s = !total;
    by_path = descending_counts paths;
    by_decision = descending_counts decisions;
    by_outcome = descending_counts outcomes;
    by_fanout = List.sort (fun (a, _) (b, _) -> compare a b) !fanouts;
    by_trace =
      take top
        (List.sort
           (fun (ta, a) (tb, b) ->
             match compare b a with 0 -> compare ta tb | c -> c)
           !traces);
    top_by_duration =
      take top
        (List.sort
           (fun (_, _, a, _) (_, _, b, _) -> compare b a)
           (List.rev !by_duration));
    top_by_pages =
      take top
        (List.sort (fun (_, _, a) (_, _, b) -> compare b a) (List.rev !by_pages));
  }
