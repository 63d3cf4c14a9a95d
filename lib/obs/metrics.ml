let shards = 64 (* power of two; indexed by domain id *)
let buckets = 64

let shard_index () = (Domain.self () :> int) land (shards - 1)

let env_enabled () =
  match Sys.getenv_opt "SIMQ_METRICS" with
  | None | Some ("" | "0" | "false" | "off") -> false
  | Some _ -> true

let enabled = Atomic.make (env_enabled ())
let on () = Atomic.get enabled
let set_enabled b = Atomic.set enabled b

let with_enabled b f =
  let prev = Atomic.get enabled in
  Atomic.set enabled b;
  Fun.protect ~finally:(fun () -> Atomic.set enabled prev) f

(* --- name and label validation --------------------------------------------

   The Prometheus text format only admits metric names matching
   [a-zA-Z_:][a-zA-Z0-9_:]* and label names matching
   [a-zA-Z_][a-zA-Z0-9_]*; anything else would render an exposition no
   scraper can parse, so registration rejects it outright. Label
   values may hold any byte — they are escaped at exposition time. *)

let name_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let valid_metric_name s =
  s <> ""
  && (name_start s.[0] || s.[0] = ':')
  && String.for_all
       (fun c -> name_start c || c = ':' || (c >= '0' && c <= '9'))
       s

let valid_label_name s =
  s <> ""
  && name_start s.[0]
  && String.for_all (fun c -> name_start c || (c >= '0' && c <= '9')) s

let check_name name =
  if not (valid_metric_name name) then
    invalid_arg
      (Printf.sprintf
         "Simq_obs.Metrics: invalid metric name %S (expected \
          [a-zA-Z_:][a-zA-Z0-9_:]*)"
         name)

(* Canonicalise a label set: sorted by label name, names validated,
   duplicates and the reserved histogram label [le] rejected. *)
let check_labels labels =
  let labels =
    List.sort (fun (a, _) (b, _) -> String.compare a b) labels
  in
  let rec check = function
    | [] -> ()
    | (k, _) :: rest ->
      if not (valid_label_name k) then
        invalid_arg
          (Printf.sprintf
             "Simq_obs.Metrics: invalid label name %S (expected \
              [a-zA-Z_][a-zA-Z0-9_]*)"
             k);
      if String.equal k "le" then
        invalid_arg "Simq_obs.Metrics: label name \"le\" is reserved";
      (match rest with
      | (k', _) :: _ when String.equal k k' ->
        invalid_arg
          (Printf.sprintf "Simq_obs.Metrics: duplicate label name %S" k)
      | _ -> ());
      check rest
  in
  check labels;
  labels

(* Backslash, double quote and newline escaped as in the Prometheus
   text format. *)
let escape_label_value v =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* HELP text escaping: only backslash and line feed. *)
let escape_help v =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* The rendered {k="v",...} suffix (empty for no labels); doubles as
   the registration identity of a child within its family. *)
let render_labels = function
  | [] -> ""
  | labels ->
    Printf.sprintf "{%s}"
      (String.concat ","
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
            labels))

type counter = {
  c_name : string;
  c_labels : (string * string) list;
  c_help : string;
  cells : int Atomic.t array; (* one per shard *)
}

type histogram = {
  h_name : string;
  h_labels : (string * string) list;
  h_help : string;
  counts : int Atomic.t array array; (* shards x buckets *)
  sums : float Atomic.t array; (* one per shard, CAS-updated *)
}

type metric = Counter of counter | Histogram of histogram

type registry = {
  mutex : Mutex.t;
  mutable metrics : metric list; (* registration order *)
  by_key : (string, metric) Hashtbl.t; (* name + rendered labels *)
  kind_by_name : (string, string) Hashtbl.t; (* family name -> kind tag *)
}

let create_registry () =
  {
    mutex = Mutex.create ();
    metrics = [];
    by_key = Hashtbl.create 32;
    kind_by_name = Hashtbl.create 32;
  }

let default = create_registry ()

let metric_name = function
  | Counter c -> c.c_name
  | Histogram h -> h.h_name

let metric_labels = function
  | Counter c -> c.c_labels
  | Histogram h -> h.h_labels

let register registry name labels kind make expect =
  check_name name;
  let labels = check_labels labels in
  let key = name ^ render_labels labels in
  Mutex.lock registry.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry.mutex)
    (fun () ->
      (* Every child of a family must share the family's kind, whether
         or not it shares the exact label set. *)
      (match Hashtbl.find_opt registry.kind_by_name name with
      | Some k when not (String.equal k kind) ->
        invalid_arg
          (Printf.sprintf
             "Simq_obs.Metrics: %S already registered as a different metric \
              kind"
             name)
      | _ -> ());
      match Hashtbl.find_opt registry.by_key key with
      | Some existing -> (
          match expect existing with
          | Some v -> v
          | None -> assert false (* kind_by_name check above rules this out *))
      | None ->
          let m, v = make labels in
          Hashtbl.add registry.by_key key m;
          Hashtbl.replace registry.kind_by_name name kind;
          registry.metrics <- m :: registry.metrics;
          v)

let counter ?(registry = default) ?(help = "") ?(labels = []) name =
  register registry name labels "counter"
    (fun labels ->
      let c =
        {
          c_name = name;
          c_labels = labels;
          c_help = help;
          cells = Array.init shards (fun _ -> Atomic.make 0);
        }
      in
      (Counter c, c))
    (function Counter c -> Some c | _ -> None)

let histogram ?(registry = default) ?(help = "") ?(labels = []) name =
  register registry name labels "histogram"
    (fun labels ->
      let h =
        {
          h_name = name;
          h_labels = labels;
          h_help = help;
          counts =
            Array.init shards (fun _ ->
                Array.init buckets (fun _ -> Atomic.make 0));
          sums = Array.init shards (fun _ -> Atomic.make 0.);
        }
      in
      (Histogram h, h))
    (function Histogram h -> Some h | _ -> None)

(* Bucket [i] holds values with upper bound [2 ^ (i - 30)]: bucket 0
   is everything <= ~1e-9 (and all v <= 0), bucket 63 everything that
   frexp maps past 2^33, i.e. the range covers nanosecond timings up
   to count-scale observations in the billions. *)
let bucket_upper i = Float.ldexp 1.0 (i - 30)

let bucket_of v =
  if v <= 0. || Float.is_nan v then 0
  else
    let _, e = Float.frexp v in
    (* v in (2^(e-1), 2^e]; frexp gives v = m * 2^e with m in [0.5,1) *)
    let i = e + 30 in
    if i < 0 then 0 else if i >= buckets then buckets - 1 else i

let incr c =
  if on () then ignore (Atomic.fetch_and_add c.cells.(shard_index ()) 1)

let add c n =
  if on () && n <> 0 then
    ignore (Atomic.fetch_and_add c.cells.(shard_index ()) n)

let atomic_float_add cell v =
  let rec go () =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur (cur +. v)) then go ()
  in
  go ()

let observe h v =
  if on () then begin
    let s = shard_index () in
    ignore (Atomic.fetch_and_add h.counts.(s).(bucket_of v) 1);
    atomic_float_add h.sums.(s) v
  end

let counter_total c =
  Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.cells

let histogram_buckets h =
  let merged = Array.make buckets 0 in
  Array.iter
    (fun shard ->
      Array.iteri (fun i cell -> merged.(i) <- merged.(i) + Atomic.get cell) shard)
    h.counts;
  merged

let histogram_count h =
  Array.fold_left ( + ) 0 (histogram_buckets h)

let histogram_sum h =
  Array.fold_left (fun acc cell -> acc +. Atomic.get cell) 0. h.sums

type sample =
  | Counter_sample of {
      name : string;
      labels : (string * string) list;
      help : string;
      total : int;
    }
  | Histogram_sample of {
      name : string;
      labels : (string * string) list;
      help : string;
      buckets : int array;
      sum : float;
      count : int;
    }

let sample_name = function
  | Counter_sample { name; _ }
  | Histogram_sample { name; _ } ->
      name

let sample_labels = function
  | Counter_sample { labels; _ }
  | Histogram_sample { labels; _ } ->
      labels

let sample_of_metric = function
  | Counter c ->
      Counter_sample
        {
          name = c.c_name;
          labels = c.c_labels;
          help = c.c_help;
          total = counter_total c;
        }
  | Histogram h ->
      let buckets = histogram_buckets h in
      Histogram_sample
        {
          name = h.h_name;
          labels = h.h_labels;
          help = h.h_help;
          buckets;
          sum = histogram_sum h;
          count = Array.fold_left ( + ) 0 buckets;
        }

(* Sort by family name, then rendered label set, so children of one
   family are adjacent (HELP/TYPE emitted once per family) and the
   exposition is stable. *)
let metrics_sorted registry =
  Mutex.lock registry.mutex;
  let ms = registry.metrics in
  Mutex.unlock registry.mutex;
  List.sort
    (fun a b ->
      match String.compare (metric_name a) (metric_name b) with
      | 0 ->
        String.compare
          (render_labels (metric_labels a))
          (render_labels (metric_labels b))
      | c -> c)
    ms

let snapshot ?(registry = default) () =
  List.map sample_of_metric (metrics_sorted registry)

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let exposition ?(registry = default) () =
  let buf = Buffer.create 4096 in
  (* HELP/TYPE once per family; children (distinct label sets) follow
     their family's first sample in sorted order. *)
  let last_family = ref "" in
  let header name help kind =
    if name <> !last_family then begin
      last_family := name;
      if help <> "" then
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  (* A histogram bucket line carries the child's labels plus [le]. *)
  let with_le labels le =
    render_labels labels
    |> fun rendered ->
    if rendered = "" then Printf.sprintf "{le=\"%s\"}" le
    else
      Printf.sprintf "%s,le=\"%s\"}"
        (String.sub rendered 0 (String.length rendered - 1))
        le
  in
  List.iter
    (fun sample ->
      match sample with
      | Counter_sample { name; labels; help; total } ->
          header name help "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" name (render_labels labels) total)
      | Histogram_sample { name; labels; help; buckets; sum; count } ->
          header name help "histogram";
          let first_nonempty =
            let rec go i =
              if i >= Array.length buckets then Array.length buckets
              else if buckets.(i) > 0 then i
              else go (i + 1)
            in
            go 0
          in
          let cumulative = ref 0 in
          Array.iteri
            (fun i n ->
              cumulative := !cumulative + n;
              if i >= first_nonempty then
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" name
                     (with_le labels (float_repr (bucket_upper i)))
                     !cumulative))
            buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" name (with_le labels "+Inf")
               count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" name (render_labels labels)
               (float_repr sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name (render_labels labels)
               count))
    (snapshot ~registry ());
  Buffer.contents buf

let reset ?(registry = default) () =
  List.iter
    (function
      | Counter c -> Array.iter (fun cell -> Atomic.set cell 0) c.cells
      | Histogram h ->
          Array.iter (Array.iter (fun cell -> Atomic.set cell 0)) h.counts;
          Array.iter (fun cell -> Atomic.set cell 0.) h.sums)
    (metrics_sorted registry)

(* --- state persistence ----------------------------------------------------

   A registry snapshot as one JSON document, so the timer histogram
   (and any other metric) can survive a process restart. Loading
   writes cells directly — deliberately bypassing the [on ()] gate,
   because restoring state is not an instrumented event — and lands
   counter/histogram contents in shard 0, which the merge-on-read
   accessors fold in like any other shard. *)

let sample_json sample =
  let labels_json labels =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)
  in
  match sample with
  | Counter_sample { name; labels; help; total } ->
      Json.Obj
        [
          ("kind", Json.Str "counter");
          ("name", Json.Str name);
          ("labels", labels_json labels);
          ("help", Json.Str help);
          ("total", Json.Num (float_of_int total));
        ]
  | Histogram_sample { name; labels; help; buckets; sum; count = _ } ->
      Json.Obj
        [
          ("kind", Json.Str "histogram");
          ("name", Json.Str name);
          ("labels", labels_json labels);
          ("help", Json.Str help);
          ( "buckets",
            Json.Arr
              (Array.to_list
                 (Array.map (fun n -> Json.Num (float_of_int n)) buckets)) );
          ("sum", Json.Num sum);
        ]

let save_state ?(registry = default) path =
  let doc =
    Json.Obj
      [
        ("event", Json.Str "simq.metrics-state");
        ("v", Json.Num 1.);
        ("metrics", Json.Arr (List.map sample_json (snapshot ~registry ())));
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')

let load_state ?(registry = default) path =
  let bad fmt = Printf.ksprintf (fun m -> failwith (path ^ ": " ^ m)) fmt in
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let doc =
    match Json.parse text with Ok v -> v | Error msg -> bad "%s" msg
  in
  (match Json.member "event" doc with
  | Some (Json.Str "simq.metrics-state") -> ()
  | _ -> bad "not a simq.metrics-state document");
  let entries =
    match Json.member "metrics" doc with
    | Some (Json.Arr l) -> l
    | _ -> bad "missing metrics array"
  in
  List.iter
    (fun m ->
      let str field =
        match Json.member field m with
        | Some (Json.Str s) -> s
        | _ -> bad "metric entry missing string field %S" field
      in
      let num field =
        match Json.member field m with
        | Some (Json.Num v) -> v
        | _ -> bad "metric entry missing numeric field %S" field
      in
      let labels =
        match Json.member "labels" m with
        | Some (Json.Obj fields) ->
            List.map
              (fun (k, v) ->
                match v with
                | Json.Str s -> (k, s)
                | _ -> bad "label %S is not a string" k)
              fields
        | _ -> []
      in
      let help = match Json.member "help" m with
        | Some (Json.Str s) -> s
        | _ -> ""
      in
      let name = str "name" in
      let registered make =
        try make () with Invalid_argument msg -> bad "%s" msg
      in
      match str "kind" with
      | "counter" ->
          let c = registered (fun () -> counter ~registry ~help ~labels name) in
          let total = int_of_float (num "total") in
          if total <> 0 then ignore (Atomic.fetch_and_add c.cells.(0) total)
      | "histogram" ->
          let h =
            registered (fun () -> histogram ~registry ~help ~labels name)
          in
          (match Json.member "buckets" m with
          | Some (Json.Arr bs) when List.length bs = buckets ->
              List.iteri
                (fun i b ->
                  match b with
                  | Json.Num v when v <> 0. ->
                      ignore
                        (Atomic.fetch_and_add h.counts.(0).(i)
                           (int_of_float v))
                  | _ -> ())
                bs
          | _ -> bad "histogram %S has no %d-bucket array" name buckets);
          atomic_float_add h.sums.(0) (num "sum")
      | kind -> bad "unknown metric kind %S" kind)
    entries
