(* The observability layer (lib/obs): the sharded metrics registry and
   the span tracer. The load-bearing promises: merged counter totals
   are identical at every domain count for deterministic work, spans
   nest and never dangle, and the Prometheus exposition is stable and
   parseable. *)

module Metrics = Simq_obs.Metrics
module Trace = Simq_obs.Trace
module Pool = Simq_parallel.Pool
open Simq_tsindex
module Generator = Simq_series.Generator

(* --- registry unit tests ---------------------------------------------------- *)

let test_counter_basics () =
  let r = Metrics.create_registry () in
  let c = Metrics.counter ~registry:r "test_counter_total" in
  Metrics.with_enabled false (fun () ->
      Metrics.incr c;
      Metrics.add c 7);
  Alcotest.(check int) "disabled updates are no-ops" 0 (Metrics.counter_total c);
  Metrics.with_enabled true (fun () ->
      Metrics.incr c;
      Metrics.add c 7;
      Metrics.add c 0);
  Alcotest.(check int) "incr + add merge" 8 (Metrics.counter_total c);
  Metrics.reset ~registry:r ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.counter_total c)

let test_registration_idempotent_and_kind_checked () =
  let r = Metrics.create_registry () in
  let a = Metrics.counter ~registry:r "test_shared_total" in
  let b = Metrics.counter ~registry:r "test_shared_total" in
  Metrics.with_enabled true (fun () ->
      Metrics.incr a;
      Metrics.incr b);
  Alcotest.(check int)
    "both handles hit the same cells" 2 (Metrics.counter_total a);
  Alcotest.(check int)
    "one metric in the snapshot" 1
    (List.length (Metrics.snapshot ~registry:r ()));
  (match Metrics.histogram ~registry:r "test_shared_total" with
  | _ -> Alcotest.fail "kind mismatch must raise"
  | exception Invalid_argument _ -> ())

let test_with_enabled_restores () =
  Metrics.set_enabled false;
  Metrics.with_enabled true (fun () ->
      Alcotest.(check bool) "forced on" true (Metrics.on ()));
  Alcotest.(check bool) "restored off" false (Metrics.on ());
  (try Metrics.with_enabled true (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check bool) "restored after exception" false (Metrics.on ())

(* Every positive observation lands in a bucket whose upper bound
   dominates it; non-positive and NaN observations land in bucket 0. *)
let test_histogram_bucketing () =
  for i = 1 to 63 do
    Alcotest.(check bool)
      (Printf.sprintf "bucket_upper monotone at %d" i)
      true
      (Metrics.bucket_upper i > Metrics.bucket_upper (i - 1))
  done;
  let bucket_of v =
    let r = Metrics.create_registry () in
    let h = Metrics.histogram ~registry:r "test_bucket" in
    Metrics.with_enabled true (fun () -> Metrics.observe h v);
    let buckets = Metrics.histogram_buckets h in
    let index = ref (-1) in
    Array.iteri (fun i n -> if n = 1 then index := i) buckets;
    Alcotest.(check int) "exactly one observation" 1
      (Array.fold_left ( + ) 0 buckets);
    !index
  in
  List.iter
    (fun v ->
      let i = bucket_of v in
      Alcotest.(check bool)
        (Printf.sprintf "upper bound dominates %g (bucket %d)" v i)
        true
        (Metrics.bucket_upper i >= v))
    [ 1e-12; 0.3; 0.5; 1.0; 2.0; 3.7; 1e6 ];
  (* the last bucket is a catch-all: values past its bound clamp into
     it rather than vanish *)
  Alcotest.(check int) "overflow clamps to the last bucket" 63 (bucket_of 1e12);
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "%g lands in bucket 0" v)
        0 (bucket_of v))
    [ 0.; -5.; Float.nan ]

let test_histogram_sum_and_count () =
  let r = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:r "test_sum" in
  Metrics.with_enabled true (fun () ->
      List.iter (Metrics.observe h) [ 1.0; 0.5; 2.0 ]);
  Alcotest.(check int) "count" 3 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 3.5 (Metrics.histogram_sum h)

(* --- exposition ------------------------------------------------------------- *)

(* A minimal Prometheus text-format check: every non-comment line is
   [name value] or [name_bucket{le="..."} value] with a parseable
   value; cumulative histogram buckets never decrease and the +Inf
   bucket equals [_count]. *)
let check_exposition_parseable text =
  let lines =
    List.filter (fun l -> l <> "" && l.[0] <> '#')
      (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "has sample lines" true (lines <> []);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "unparseable line: %s" line
      | Some i -> (
          let value = String.sub line (i + 1) (String.length line - i - 1) in
          match float_of_string_opt value with
          | Some _ -> ()
          | None -> Alcotest.failf "unparseable value in: %s" line))
    lines

let test_exposition_stable_and_parseable () =
  let r = Metrics.create_registry () in
  let c = Metrics.counter ~registry:r ~help:"a counter" "test_expo_total" in
  let h = Metrics.histogram ~registry:r ~help:"a histogram" "test_expo_hist" in
  Metrics.with_enabled true (fun () ->
      Metrics.add c 5;
      List.iter (Metrics.observe h) [ 0.001; 0.5; 4.0; 4.0 ]);
  let text = Metrics.exposition ~registry:r () in
  check_exposition_parseable text;
  Alcotest.(check string)
    "exposition is stable for a fixed registry state" text
    (Metrics.exposition ~registry:r ());
  let names = List.map Metrics.sample_name (Metrics.snapshot ~registry:r ()) in
  Alcotest.(check (list string))
    "snapshot sorted by name"
    [ "test_expo_hist"; "test_expo_total" ]
    names;
  let contains needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter sample" true (contains "test_expo_total 5");
  Alcotest.(check bool)
    "+Inf bucket equals count" true
    (contains "test_expo_hist_bucket{le=\"+Inf\"} 4"
    && contains "test_expo_hist_count 4");
  (* cumulative buckets never decrease *)
  let last = ref 0 in
  List.iter
    (fun line ->
      if String.length line > 22 && String.sub line 0 22 = "test_expo_hist_bucket{"
      then begin
        let i = String.rindex line ' ' in
        let v = int_of_string (String.sub line (i + 1) (String.length line - i - 1)) in
        Alcotest.(check bool) "cumulative non-decreasing" true (v >= !last);
        last := v
      end)
    (String.split_on_char '\n' text)

(* --- cross-domain determinism ------------------------------------------------ *)

(* Per-item observations and per-chunk adds cover the input exactly
   once whatever the chunking, so merged integer totals must not
   depend on the domain count. *)
let test_merge_deterministic_across_domains () =
  let c = Metrics.counter "test_obs_items_total" in
  let h = Metrics.histogram "test_obs_values" in
  let n = 1000 in
  let values =
    Array.init n (fun i -> float_of_int ((i * 37 mod 97) + 1) /. 8.)
  in
  let totals_at domains =
    let pool = Pool.create ~domains in
    Metrics.with_enabled true (fun () ->
        Metrics.reset ();
        ignore
          (Pool.map_chunks ~pool ~chunk:64 ~n (fun ~lo ~hi ->
               Metrics.add c (hi - lo);
               for i = lo to hi - 1 do
                 Metrics.observe h values.(i)
               done)
            : unit list));
    Pool.shutdown pool;
    (Metrics.counter_total c, Metrics.histogram_count h,
     Array.to_list (Metrics.histogram_buckets h))
  in
  let reference = totals_at 1 in
  let total, count, _ = reference in
  Alcotest.(check int) "counter covers every item" n total;
  Alcotest.(check int) "histogram covers every item" n count;
  List.iter
    (fun domains ->
      let total', count', buckets' = totals_at domains in
      let _, _, buckets = reference in
      Alcotest.(check int)
        (Printf.sprintf "counter total, domains=%d" domains)
        total total';
      Alcotest.(check int)
        (Printf.sprintf "histogram count, domains=%d" domains)
        count count';
      Alcotest.(check (list int))
        (Printf.sprintf "bucket counts, domains=%d" domains)
        buckets buckets')
    [ 2; 4 ]

(* The same promise through the real instrumentation: the scan
   families' totals after a fixed workload are identical at 1/2/4
   domains, and the answers stay bit-identical to the metrics-off
   run. *)
let test_instrumented_scan_totals_deterministic () =
  let batch = Generator.random_walks ~seed:1995 ~count:80 ~n:48 in
  let dataset = Dataset.of_series ~pool:Pool.sequential ~name:"obs" batch in
  let query = batch.(0) in
  let epsilon = 2.0 in
  let reference =
    Metrics.with_enabled false (fun () ->
        Seqscan.range_early_abandon ~pool:Pool.sequential dataset ~query
          ~epsilon)
  in
  let families =
    [ "simq_scan_candidates_total"; "simq_scan_survivors_total";
      "simq_scan_early_abandon_total" ]
  in
  let run domains =
    let pool = Pool.create ~domains in
    let result =
      Metrics.with_enabled true (fun () ->
          Metrics.reset ();
          Seqscan.range_early_abandon ~pool dataset ~query ~epsilon)
    in
    let totals =
      List.map (fun f -> Metrics.counter_total (Metrics.counter f)) families
    in
    Pool.shutdown pool;
    (result, totals)
  in
  let _, ref_totals = run 1 in
  Alcotest.(check int)
    "candidates cover the relation" (Array.length (Dataset.entries dataset))
    (List.hd ref_totals);
  List.iter
    (fun domains ->
      let result, totals = run domains in
      Alcotest.(check (list int))
        (Printf.sprintf "family totals, domains=%d" domains)
        ref_totals totals;
      Alcotest.(check (list (pair int (float 0.))))
        (Printf.sprintf "answers unchanged, domains=%d" domains)
        reference.Seqscan.answers
        result.Seqscan.answers)
    [ 1; 2; 4 ]

(* --- span tracing ------------------------------------------------------------ *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_spans_nest_and_never_dangle () =
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled false)
    (fun () ->
      Trace.reset ();
      Trace.with_span "outer" (fun () ->
          Alcotest.(check int) "one open span" 1 (Trace.open_spans ());
          Trace.with_span "inner" (fun () ->
              Alcotest.(check int) "two open spans" 2 (Trace.open_spans ())));
      Alcotest.(check int) "no dangling spans" 0 (Trace.open_spans ());
      Alcotest.(check int) "two finished events" 2 (Trace.event_count ());
      let path = Filename.temp_file "simq_obs" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Trace.export_file path;
          let text = read_file path in
          Alcotest.(check bool)
            "outer is a root span" true
            (contains text "\"name\":\"outer\""
            && contains text "\"args\":{\"id\":1,\"parent\":0,\"trace\":0}");
          Alcotest.(check bool)
            "inner nests under outer" true
            (contains text "\"name\":\"inner\""
            && contains text "\"args\":{\"id\":2,\"parent\":1,\"trace\":0}")))

let test_span_closed_on_exception () =
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled false)
    (fun () ->
      Trace.reset ();
      (try Trace.with_span "raises" (fun () -> raise Exit) with Exit -> ());
      Alcotest.(check int) "no dangling span after raise" 0 (Trace.open_spans ());
      Alcotest.(check int) "the span still recorded" 1 (Trace.event_count ()))

let test_trace_disabled_is_free () =
  Trace.set_enabled false;
  Trace.reset ();
  Trace.with_span "ignored" (fun () -> ());
  Alcotest.(check int) "nothing recorded while off" 0 (Trace.event_count ());
  Alcotest.(check int) "nothing open while off" 0 (Trace.open_spans ())

(* --- labels, escaping, validation -------------------------------------------- *)

let count_occurrences haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i acc =
    if i + n > m then acc
    else if String.sub haystack i n = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_labeled_children () =
  let r = Metrics.create_registry () in
  let child op =
    Metrics.counter ~registry:r ~help:"per-op totals"
      ~labels:[ ("op", op) ]
      "test_family_total"
  in
  let a = child "alpha" and b = child "beta" in
  Metrics.with_enabled true (fun () ->
      Metrics.add a 3;
      Metrics.incr b);
  Alcotest.(check int) "child totals separate" 3 (Metrics.counter_total a);
  Alcotest.(check int) "child totals separate (b)" 1 (Metrics.counter_total b);
  Alcotest.(check int)
    "same labels retrieve the same cells" 4
    (Metrics.with_enabled true (fun () -> Metrics.incr (child "alpha"));
     Metrics.counter_total a);
  (* canonicalisation: label order does not create a new child *)
  let x =
    Metrics.counter ~registry:r
      ~labels:[ ("a", "1"); ("b", "2") ]
      "test_canon_total"
  in
  let y =
    Metrics.counter ~registry:r
      ~labels:[ ("b", "2"); ("a", "1") ]
      "test_canon_total"
  in
  Metrics.with_enabled true (fun () ->
      Metrics.incr x;
      Metrics.incr y);
  Alcotest.(check int) "label order is canonicalised" 2
    (Metrics.counter_total x);
  let text = Metrics.exposition ~registry:r () in
  Alcotest.(check int)
    "HELP once per family" 1
    (count_occurrences text "# HELP test_family_total per-op totals\n");
  Alcotest.(check int)
    "TYPE once per family" 1
    (count_occurrences text "# TYPE test_family_total counter\n");
  Alcotest.(check int)
    "one sample per child" 1
    (count_occurrences text "test_family_total{op=\"alpha\"} 4\n");
  Alcotest.(check int)
    "one sample per child (beta)" 1
    (count_occurrences text "test_family_total{op=\"beta\"} 1\n");
  let labels =
    List.map Metrics.sample_labels
      (List.filter
         (fun s -> Metrics.sample_name s = "test_family_total")
         (Metrics.snapshot ~registry:r ()))
  in
  Alcotest.(check int) "two children in the snapshot" 2 (List.length labels)

let test_label_value_escaping () =
  let r = Metrics.create_registry () in
  let c =
    Metrics.counter ~registry:r
      ~labels:[ ("q", "a\\b\"c\nd") ]
      "test_escape_total"
  in
  Metrics.with_enabled true (fun () -> Metrics.incr c);
  let text = Metrics.exposition ~registry:r () in
  Alcotest.(check bool)
    "backslash, quote and newline are escaped" true
    (contains text "test_escape_total{q=\"a\\\\b\\\"c\\nd\"} 1");
  Alcotest.(check bool)
    "no raw newline leaks into the sample line" true
    (List.exists
       (fun line -> contains line "test_escape_total{")
       (String.split_on_char '\n' text));
  check_exposition_parseable text

let test_help_escaping () =
  let r = Metrics.create_registry () in
  ignore
    (Metrics.counter ~registry:r ~help:"line one\nline two \\ done"
       "test_help_total");
  let text = Metrics.exposition ~registry:r () in
  Alcotest.(check bool)
    "newline and backslash escaped in HELP" true
    (contains text "# HELP test_help_total line one\\nline two \\\\ done\n")

let test_invalid_names_rejected () =
  let r = Metrics.create_registry () in
  let rejects f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "metric name %S rejected" name)
        true
        (rejects (fun () -> Metrics.counter ~registry:r name)))
    [ ""; "9starts_with_digit"; "has-dash"; "has space"; "caf\xc3\xa9" ];
  List.iter
    (fun labels ->
      Alcotest.(check bool)
        (Printf.sprintf "label set [%s] rejected"
           (String.concat ";" (List.map fst labels)))
        true
        (rejects (fun () ->
             Metrics.counter ~registry:r ~labels "test_valid_total")))
    [
      [ ("", "v") ];
      [ ("0x", "v") ];
      [ ("has-dash", "v") ];
      [ ("with:colon", "v") ];
      [ ("le", "0.5") ];
      [ ("dup", "a"); ("dup", "b") ];
    ];
  (* colons are legal in metric names (recording-rule style), and any
     byte is legal in a label value *)
  Alcotest.(check bool)
    "colon metric name accepted" false
    (rejects (fun () -> Metrics.counter ~registry:r "ns:test_total"));
  Alcotest.(check bool)
    "arbitrary label value accepted" false
    (rejects (fun () ->
         Metrics.counter ~registry:r
           ~labels:[ ("v", "\x00\xff{}\"\\\n") ]
           "test_any_value_total"))

(* --- exposition grammar property ---------------------------------------------- *)

(* A strict line-by-line parser for the Prometheus text format — the
   oracle for the QCheck property below. Accepts exactly:
     # HELP <metric-name> <escaped-text>
     # TYPE <metric-name> counter|gauge|histogram
     <metric-name>[{<label>="<escaped-value>",...}] <float>
   with metric names [a-zA-Z_:][a-zA-Z0-9_:]*, label names
   [a-zA-Z_][a-zA-Z0-9_]*, and only the backslash, quote and newline
   escapes inside quoted values (backslash and newline in HELP text). *)
let strict_line_ok line =
  let n = String.length line in
  let name_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  let name_char c = name_start c || c = ':' || (c >= '0' && c <= '9') in
  let label_char c = name_start c || (c >= '0' && c <= '9') in
  let metric_name_ok s =
    s <> ""
    && (name_start s.[0] || s.[0] = ':')
    && String.for_all name_char s
  in
  let escaped_text_ok s =
    let m = String.length s in
    let rec go i =
      if i >= m then true
      else
        match s.[i] with
        | '\\' -> i + 1 < m && (s.[i + 1] = '\\' || s.[i + 1] = 'n') && go (i + 2)
        | '\n' -> false
        | _ -> go (i + 1)
    in
    go 0
  in
  if n = 0 then true
  else if line.[0] = '#' then begin
    let with_prefix p k =
      let lp = String.length p in
      n >= lp && String.sub line 0 lp = p && k (String.sub line lp (n - lp))
    in
    with_prefix "# HELP " (fun rest ->
        match String.index_opt rest ' ' with
        | None -> metric_name_ok rest
        | Some i ->
          metric_name_ok (String.sub rest 0 i)
          && escaped_text_ok
               (String.sub rest (i + 1) (String.length rest - i - 1)))
    || with_prefix "# TYPE " (fun rest ->
           match String.split_on_char ' ' rest with
           | [ name; kind ] ->
             metric_name_ok name
             && List.mem kind [ "counter"; "gauge"; "histogram" ]
           | _ -> false)
  end
  else begin
    let rec scan_while pred i =
      if i < n && pred line.[i] then scan_while pred (i + 1) else i
    in
    (* quoted label value: consume past the closing quote *)
    let rec value i =
      if i >= n then None
      else
        match line.[i] with
        | '\\' ->
          if
            i + 1 < n
            && (line.[i + 1] = '\\' || line.[i + 1] = '"' || line.[i + 1] = 'n')
          then value (i + 2)
          else None
        | '"' -> Some (i + 1)
        | _ -> value (i + 1)
    in
    let rec labels i =
      (* at the start of a label name *)
      if i >= n || not (name_start line.[i]) then None
      else begin
        let j = scan_while label_char i in
        if j + 1 >= n || line.[j] <> '=' || line.[j + 1] <> '"' then None
        else
          match value (j + 2) with
          | None -> None
          | Some k ->
            if k < n && line.[k] = ',' then labels (k + 1)
            else if k < n && line.[k] = '}' then Some (k + 1)
            else None
      end
    in
    (name_start line.[0] || line.[0] = ':')
    &&
    let i = scan_while name_char 1 in
    let after_labels =
      if i < n && line.[i] = '{' then labels (i + 1) else Some i
    in
    match after_labels with
    | None -> false
    | Some i ->
      i < n
      && line.[i] = ' '
      && Option.is_some
           (float_of_string_opt (String.sub line (i + 1) (n - i - 1)))
  end

let strict_exposition_ok text =
  List.for_all strict_line_ok (String.split_on_char '\n' text)

let test_strict_checker_sanity () =
  List.iter
    (fun line ->
      Alcotest.(check bool) ("accepts: " ^ String.escaped line) true
        (strict_line_ok line))
    [
      "# HELP simq_x_total help with spaces \\n and \\\\";
      "# TYPE simq_x_total counter";
      "simq_x_total 5";
      "ns:rule:total 1.5";
      "simq_x_total{op=\"a\"} 5";
      "simq_x_total{op=\"a\\\"b\\\\c\\nd\",q=\"z\"} 5";
      "simq_hist_bucket{le=\"+Inf\"} 4";
      "simq_hist_bucket{le=\"9.765625e-10\"} 0";
      "simq_gauge nan";
    ];
  List.iter
    (fun line ->
      Alcotest.(check bool) ("rejects: " ^ String.escaped line) false
        (strict_line_ok line))
    [
      "# TYPE simq_x_total summary";
      "# TYPE 9bad counter";
      "9bad 5";
      "simq_x_total";
      "simq_x_total five";
      "simq_x_total{op=a} 5";
      "simq_x_total{op=\"raw\"quote\"} 5";
      "simq_x_total{op=\"bad\\escape\"} 5";
      "simq_x_total{0op=\"a\"} 5";
      "simq_x_total{op=\"unterminated} 5";
    ]

let test_exposition_conforms_to_strict_grammar () =
  (* the default registry, warmed by the instrumented-scan test above,
     plus a registry exercising every metric kind with labels *)
  Alcotest.(check bool)
    "default registry conforms" true
    (strict_exposition_ok (Metrics.exposition ()));
  let r = Metrics.create_registry () in
  let c =
    Metrics.counter ~registry:r ~help:"nasty \\ help\nwith newline"
      ~labels:[ ("v", "a\"b\\c\nd") ]
      "test_strict_total"
  in
  let h =
    Metrics.histogram ~registry:r ~labels:[ ("side", "left") ]
      "test_strict_seconds"
  in
  Metrics.with_enabled true (fun () ->
      Metrics.incr c;
      Metrics.observe h 0.25);
  Alcotest.(check bool)
    "kinds + labels + escapes conform" true
    (strict_exposition_ok (Metrics.exposition ~registry:r ()))

let arb_nasty_string =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(
      string_size ~gen:
        (oneof
           [
             char;
             oneofl [ '"'; '\\'; '\n'; '{'; '}'; '='; ','; ' '; '\x00' ];
           ])
        (int_range 0 24))

let prop_exposition_grammar =
  QCheck.Test.make
    ~name:"exposition conforms to the text-format grammar for any label \
           value and help text"
    ~count:200
    QCheck.(triple arb_nasty_string arb_nasty_string arb_nasty_string)
    (fun (help, v1, v2) ->
      let r = Metrics.create_registry () in
      let child v = Metrics.counter ~registry:r ~help ~labels:[ ("q", v) ] "test_prop_total" in
      let a = child v1 and b = child v2 in
      let h = Metrics.histogram ~registry:r ~labels:[ ("q", v2) ] "test_prop_seconds" in
      Metrics.with_enabled true (fun () ->
          Metrics.incr a;
          Metrics.add b 2;
          Metrics.observe h 1.0);
      strict_exposition_ok (Metrics.exposition ~registry:r ()))

(* --- the exposition endpoint --------------------------------------------------- *)

module Serve = Simq_obs.Serve

let test_scrape_equals_dump () =
  let r = Metrics.create_registry () in
  let c =
    Metrics.counter ~registry:r ~help:"served"
      ~labels:[ ("decision", "reject") ]
      "test_serve_total"
  in
  Metrics.with_enabled true (fun () -> Metrics.add c 3);
  Serve.with_server ~registry:r ~port:0 (fun server ->
      let port = Serve.port server in
      Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
      let body = Serve.scrape ~port () in
      Alcotest.(check string)
        "scrape equals the dump" (Metrics.exposition ~registry:r ())
        body;
      Alcotest.(check bool)
        "scrape conforms to the strict grammar" true
        (strict_exposition_ok body);
      Metrics.with_enabled true (fun () -> Metrics.add c 2);
      let body' = Serve.scrape ~port () in
      Alcotest.(check string)
        "a second scrape sees the update" (Metrics.exposition ~registry:r ())
        body';
      Alcotest.(check bool)
        "the totals advanced between scrapes" true
        (contains body "test_serve_total{decision=\"reject\"} 3"
        && contains body' "test_serve_total{decision=\"reject\"} 5"))

(* --- persisted registry state ---------------------------------------- *)

let test_state_roundtrip () =
  let file = Filename.temp_file "simq_state" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let src = Metrics.create_registry () in
      let c =
        Metrics.counter ~registry:src ~help:"h" "test_state_total"
          ~labels:[ ("path", "index") ]
      in
      let h = Metrics.histogram ~registry:src "test_state_seconds" in
      Metrics.with_enabled true (fun () ->
          Metrics.add c 42;
          Metrics.observe h 0.003;
          Metrics.observe h 7.5);
      Metrics.save_state ~registry:src file;
      let dst = Metrics.create_registry () in
      Metrics.load_state ~registry:dst file;
      Alcotest.(check string)
        "expositions identical after round trip"
        (Metrics.exposition ~registry:src ())
        (Metrics.exposition ~registry:dst ());
      (* Loading into a registry that already carries totals adds. *)
      Metrics.load_state ~registry:dst file;
      let c' =
        Metrics.counter ~registry:dst "test_state_total"
          ~labels:[ ("path", "index") ]
      in
      Alcotest.(check int) "counter totals accumulate" 84
        (Metrics.counter_total c'))

let test_state_survives_disabled_collection () =
  (* The load path must bypass the collection gate: a process that only
     restores state (metrics off) still starts from the saved totals. *)
  let file = Filename.temp_file "simq_state" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let src = Metrics.create_registry () in
      let c = Metrics.counter ~registry:src "test_state_off_total" in
      Metrics.with_enabled true (fun () -> Metrics.add c 9);
      Metrics.save_state ~registry:src file;
      let dst = Metrics.create_registry () in
      Metrics.with_enabled false (fun () -> Metrics.load_state ~registry:dst file);
      Alcotest.(check int) "restored with collection off" 9
        (Metrics.counter_total
           (Metrics.counter ~registry:dst "test_state_off_total")))

let test_state_malformed_is_failure () =
  let file = Filename.temp_file "simq_state" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc "{ not json");
      let dst = Metrics.create_registry () in
      match Metrics.load_state ~registry:dst file with
      | () -> Alcotest.fail "malformed state must not load"
      | exception Failure msg ->
        Alcotest.(check bool) "error names the file" true
          (let nh = String.length msg and needle = file in
           let nn = String.length needle in
           let rec go i =
             if i + nn > nh then false
             else String.sub msg i nn = needle || go (i + 1)
           in
           go 0))

let test_server_stops () =
  let r = Metrics.create_registry () in
  ignore (Metrics.counter ~registry:r "test_stop_total");
  let port =
    Serve.with_server ~registry:r ~port:0 (fun server -> Serve.port server)
  in
  match Serve.scrape ~port () with
  | _ -> Alcotest.fail "a stopped server must refuse connections"
  | exception _ -> ()

(* --- request-scoped correlation ---------------------------------------------- *)

module Json = Simq_obs.Json

let test_request_ids_unique_and_scoped () =
  let a = Trace.new_request_id () in
  let b = Trace.new_request_id () in
  Alcotest.(check bool) "ids strictly increase" true (0 < a && a < b);
  Alcotest.(check int) "no ambient id outside a scope" 0
    (Trace.current_request ());
  Alcotest.(check int) "domain-local binding shadows the global" b
    (Trace.with_request a (fun () ->
         Trace.with_request ~global:false b (fun () ->
             Trace.current_request ())));
  Alcotest.(check int) "global binding visible" a
    (Trace.with_request a (fun () -> Trace.current_request ()));
  Alcotest.(check int) "bindings restored" 0 (Trace.current_request ());
  (try Trace.with_request a (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check int) "restored after a raise" 0 (Trace.current_request ())

(* Every span a request emits — including those recorded by pool
   worker domains fanning out on its behalf — carries the request's
   id, whatever the domain count. *)
let test_span_trace_stamped_across_domains () =
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled false)
    (fun () ->
      List.iter
        (fun domains ->
          Trace.reset ();
          let pool = Pool.create ~domains in
          let id = Trace.new_request_id () in
          Trace.with_request id (fun () ->
              Trace.with_span "request" (fun () ->
                  ignore
                    (Pool.map_chunks ~pool ~chunk:8 ~n:64 (fun ~lo:_ ~hi:_ ->
                         Trace.with_span "chunk" (fun () -> ()))
                      : unit list)));
          Pool.shutdown pool;
          let traces = Trace.event_traces () in
          Alcotest.(check bool)
            (Printf.sprintf "every span stamped, domains=%d" domains)
            true
            (traces <> [] && List.for_all (fun t -> t = id) traces))
        [ 1; 2; 4 ])

let prop_request_ids_unique =
  QCheck2.Test.make ~count:100
    ~name:"request ids are unique and nested scopes restore"
    QCheck2.Gen.(int_range 1 16)
    (fun n ->
      let ids = List.init n (fun _ -> Trace.new_request_id ()) in
      let distinct = List.length (List.sort_uniq compare ids) = n in
      let scoped =
        List.for_all
          (fun id -> Trace.with_request id Trace.current_request = id)
          ids
      in
      distinct && scoped && Trace.current_request () = 0)

(* --- slow-query exemplar store ------------------------------------------------ *)

module Slow = Simq_obs.Slow

let slow_entry ?(trace_id = 0) ?(profile = "") seq duration_s =
  {
    Slow.seq;
    trace_id;
    digest = "0123456789ab";
    spec = Printf.sprintf "q%d" seq;
    duration_s;
    profile;
  }

let test_slow_store_worst_k () =
  (match Slow.create ~k:0 with
  | _ -> Alcotest.fail "k = 0 must be rejected"
  | exception Invalid_argument _ -> ());
  let s = Slow.create ~k:3 in
  List.iter (Slow.observe s)
    [
      slow_entry 0 0.010; slow_entry 1 0.005; slow_entry 2 0.030;
      slow_entry 3 0.010; slow_entry 4 0.001;
    ];
  let seqs () = List.map (fun e -> e.Slow.seq) (Slow.entries s) in
  Alcotest.(check (list int))
    "worst three, duration desc, ties by ascending seq" [ 2; 0; 3 ]
    (seqs ());
  Slow.observe s (slow_entry 9 0.0001);
  Alcotest.(check (list int)) "a non-displacing observe changes nothing"
    [ 2; 0; 3 ] (seqs ());
  match Json.parse (Json.to_string (Slow.to_json s)) with
  | Error msg -> Alcotest.failf "slow document: %s" msg
  | Ok v ->
    Alcotest.(check (option string)) "self-describing" (Some "simq.slow")
      (Option.bind (Json.member "event" v) Json.string_of);
    Alcotest.(check (option (float 1e-9))) "k" (Some 3.)
      (Option.bind (Json.member "k" v) Json.number)

let prop_slow_store_worst_k =
  QCheck2.Test.make ~count:300
    ~name:"slow store keeps exactly worst-K in deterministic order"
    QCheck2.Gen.(pair (int_range 1 6) (list_size (int_range 0 30) (int_range 0 5)))
    (fun (k, durations) ->
      let s = Slow.create ~k in
      List.iteri
        (fun i d -> Slow.observe s (slow_entry i (float_of_int d /. 1000.)))
        durations;
      let expected =
        List.mapi (fun i d -> (i, float_of_int d /. 1000.)) durations
        |> List.sort (fun (sa, da) (sb, db) ->
               match compare db da with 0 -> compare sa sb | c -> c)
        |> List.filteri (fun i _ -> i < k)
      in
      List.map (fun e -> (e.Slow.seq, e.Slow.duration_s)) (Slow.entries s)
      = expected)

(* --- telemetry history -------------------------------------------------------- *)

module History = Simq_obs.History

let test_history_window_rates () =
  let r = Metrics.create_registry () in
  let q = Metrics.counter ~registry:r "simq_serve_queries_total" in
  let shed = Metrics.counter ~registry:r "simq_serve_shed_total" in
  let timer = Metrics.histogram ~registry:r "simq_timer_seconds" in
  let h = History.create ~registry:r ~capacity:4 ~interval_s:60. () in
  Alcotest.(check int) "empty at creation" 0 (History.length h);
  Metrics.with_enabled true (fun () ->
      History.sample h;
      Metrics.add q 8;
      Metrics.add shed 2;
      Metrics.observe timer 0.004;
      Metrics.observe timer 0.032;
      History.sample h);
  match History.window h with
  | None -> Alcotest.fail "two samples must open a window"
  | Some w ->
    Alcotest.(check int) "queries delta" 8 w.History.queries;
    Alcotest.(check int) "shed delta" 2 w.History.shed;
    Alcotest.(check (float 1e-9)) "shed rate" 0.2 w.History.shed_rate;
    Alcotest.(check bool) "qps non-negative" true (w.History.qps >= 0.);
    Alcotest.(check int) "latency observations" 2 w.History.latency_count;
    Alcotest.(check bool) "p50 bounds the fast observation" true
      (w.History.p50_s >= 0.004);
    Alcotest.(check bool) "p99 bounds the slow observation" true
      (w.History.p99_s >= 0.032);
    Alcotest.(check bool) "quantiles ordered" true
      (w.History.p99_s >= w.History.p50_s)

let test_history_reset_clamps_and_capacity () =
  let r = Metrics.create_registry () in
  let q = Metrics.counter ~registry:r "simq_serve_queries_total" in
  let h = History.create ~registry:r ~capacity:2 ~interval_s:60. () in
  Metrics.with_enabled true (fun () ->
      Metrics.add q 100;
      History.sample h;
      Metrics.reset ~registry:r ();
      History.sample h);
  (match History.window h with
  | None -> Alcotest.fail "window expected"
  | Some w ->
    Alcotest.(check int) "a reset clamps to zero, never negative" 0
      w.History.queries;
    Alcotest.(check (float 0.)) "no rate from a reset" 0. w.History.qps);
  for _ = 1 to 5 do
    History.sample h
  done;
  Alcotest.(check int) "the ring stays bounded" 2 (History.length h)

(* The sampler only snapshots (merge-on-read): totals after identical
   work are identical at every domain count, sampler running or not. *)
let test_history_sampler_keeps_totals () =
  let c = Metrics.counter "test_history_inv_total" in
  let totals_at domains =
    let pool = Pool.create ~domains in
    let h = History.create ~capacity:8 ~interval_s:0.01 () in
    History.start h;
    Metrics.with_enabled true (fun () ->
        Metrics.reset ();
        ignore
          (Pool.map_chunks ~pool ~chunk:16 ~n:512 (fun ~lo ~hi ->
               Metrics.add c (hi - lo))
            : unit list));
    History.stop h;
    Pool.shutdown pool;
    Alcotest.(check bool) "the sampler sampled" true (History.length h >= 1);
    Metrics.counter_total c
  in
  List.iter
    (fun domains ->
      Alcotest.(check int)
        (Printf.sprintf "totals with a live sampler, domains=%d" domains)
        512 (totals_at domains))
    [ 1; 2; 4 ]

(* The concurrent-scrape regression: a connected-but-silent peer must
   not block other scrapes (each connection gets its own thread), and
   /metrics and /history answer complete documents while it hangs. *)
let test_concurrent_scrapes_with_silent_peer () =
  let r = Metrics.create_registry () in
  let c = Metrics.counter ~registry:r "test_concurrent_total" in
  Metrics.with_enabled true (fun () -> Metrics.add c 4);
  let h = History.create ~registry:r ~capacity:4 ~interval_s:60. () in
  History.sample h;
  Serve.with_server ~registry:r
    ~history:(fun () -> History.document h)
    ~port:0
    (fun server ->
      let port = Serve.port server in
      let silent = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close silent with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect silent
            (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let metrics_body = Serve.scrape ~timeout:5. ~port () in
          let history_body =
            Serve.scrape ~timeout:5. ~path:"/history" ~port ()
          in
          Alcotest.(check bool) "metrics scrape complete" true
            (contains metrics_body "test_concurrent_total 4");
          match Json.parse history_body with
          | Error msg -> Alcotest.failf "history body: %s" msg
          | Ok v ->
            Alcotest.(check (option string)) "history document served"
              (Some "simq.history")
              (Option.bind (Json.member "event" v) Json.string_of);
            Alcotest.(check bool) "document samples on demand" true
              (match Option.bind (Json.member "samples" v) Json.number with
              | Some n -> n >= 2.
              | None -> false)))

let test_history_endpoint_404_without_provider () =
  let r = Metrics.create_registry () in
  Serve.with_server ~registry:r ~port:0 (fun server ->
      let body = Serve.scrape ~path:"/history" ~port:(Serve.port server) () in
      Alcotest.(check string) "a providerless endpoint answers 404"
        "no history on this endpoint\n" body)

let () =
  Alcotest.run "simq_obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "idempotent registration, kind checked" `Quick
            test_registration_idempotent_and_kind_checked;
          Alcotest.test_case "with_enabled restores" `Quick
            test_with_enabled_restores;
          Alcotest.test_case "histogram bucketing" `Quick
            test_histogram_bucketing;
          Alcotest.test_case "histogram sum and count" `Quick
            test_histogram_sum_and_count;
          Alcotest.test_case "exposition stable and parseable" `Quick
            test_exposition_stable_and_parseable;
        ] );
      ( "labels",
        [
          Alcotest.test_case "labeled children" `Quick test_labeled_children;
          Alcotest.test_case "label value escaping" `Quick
            test_label_value_escaping;
          Alcotest.test_case "help escaping" `Quick test_help_escaping;
          Alcotest.test_case "invalid names rejected" `Quick
            test_invalid_names_rejected;
        ] );
      ( "grammar",
        Alcotest.test_case "strict checker sanity" `Quick
          test_strict_checker_sanity
        :: Alcotest.test_case "exposition conforms" `Quick
             test_exposition_conforms_to_strict_grammar
        :: List.map QCheck_alcotest.to_alcotest [ prop_exposition_grammar ] );
      ( "serve",
        [
          Alcotest.test_case "scrape equals dump" `Quick
            test_scrape_equals_dump;
          Alcotest.test_case "server stops" `Quick test_server_stops;
        ] );
      ( "state",
        [
          Alcotest.test_case "save/load round trip" `Quick
            test_state_roundtrip;
          Alcotest.test_case "load bypasses the collection gate" `Quick
            test_state_survives_disabled_collection;
          Alcotest.test_case "malformed state is a Failure" `Quick
            test_state_malformed_is_failure;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "merged totals vs domain count" `Quick
            test_merge_deterministic_across_domains;
          Alcotest.test_case "instrumented scan totals vs domain count" `Quick
            test_instrumented_scan_totals_deterministic;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "spans nest and never dangle" `Quick
            test_spans_nest_and_never_dangle;
          Alcotest.test_case "span closed on exception" `Quick
            test_span_closed_on_exception;
          Alcotest.test_case "disabled tracing is free" `Quick
            test_trace_disabled_is_free;
        ] );
      ( "request-ids",
        Alcotest.test_case "unique and scoped" `Quick
          test_request_ids_unique_and_scoped
        :: Alcotest.test_case "spans stamped across domains" `Quick
             test_span_trace_stamped_across_domains
        :: List.map QCheck_alcotest.to_alcotest [ prop_request_ids_unique ] );
      ( "slow-store",
        Alcotest.test_case "worst-k, deterministic ties" `Quick
          test_slow_store_worst_k
        :: List.map QCheck_alcotest.to_alcotest [ prop_slow_store_worst_k ] );
      ( "history",
        [
          Alcotest.test_case "window rates and quantiles" `Quick
            test_history_window_rates;
          Alcotest.test_case "reset clamps, ring bounded" `Quick
            test_history_reset_clamps_and_capacity;
          Alcotest.test_case "sampler leaves totals unchanged" `Quick
            test_history_sampler_keeps_totals;
          Alcotest.test_case "concurrent scrapes with a silent peer" `Quick
            test_concurrent_scrapes_with_silent_peer;
          Alcotest.test_case "/history is 404 without a provider" `Quick
            test_history_endpoint_404_without_provider;
        ] );
    ]
