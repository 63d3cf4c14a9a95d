open Simq_storage

(* --- Io_stats ----------------------------------------------------------- *)

let test_io_stats () =
  let s = Io_stats.create () in
  Io_stats.record_page_read s;
  Io_stats.record_page_read s;
  Io_stats.record_page_write s;
  Io_stats.record_cache_hit s;
  Alcotest.(check int) "reads" 2 (Io_stats.page_reads s);
  Alcotest.(check int) "writes" 1 (Io_stats.page_writes s);
  Alcotest.(check int) "hits" 1 (Io_stats.cache_hits s);
  Io_stats.reset s;
  Alcotest.(check int) "reset" 0 (Io_stats.page_reads s)

(* --- Buffer_pool ---------------------------------------------------------- *)

let test_pool_hit_miss () =
  let stats = Io_stats.create () in
  let pool = Buffer_pool.create ~capacity:2 ~stats in
  Alcotest.(check bool) "first is miss" true (Buffer_pool.touch pool 1 = `Miss);
  Alcotest.(check bool) "second touch is hit" true (Buffer_pool.touch pool 1 = `Hit);
  ignore (Buffer_pool.touch pool 2);
  Alcotest.(check int) "resident" 2 (Buffer_pool.resident pool);
  (* Page 3 evicts the LRU page 1. *)
  ignore (Buffer_pool.touch pool 3);
  Alcotest.(check bool) "page 1 evicted" true (Buffer_pool.touch pool 1 = `Miss);
  Alcotest.(check int) "misses counted" 4 (Io_stats.page_reads stats)

let test_pool_lru_order () =
  let stats = Io_stats.create () in
  let pool = Buffer_pool.create ~capacity:2 ~stats in
  ignore (Buffer_pool.touch pool 1);
  ignore (Buffer_pool.touch pool 2);
  ignore (Buffer_pool.touch pool 1);
  (* Now 2 is the LRU; touching 3 evicts it. *)
  ignore (Buffer_pool.touch pool 3);
  Alcotest.(check bool) "1 still resident" true (Buffer_pool.touch pool 1 = `Hit);
  Alcotest.(check bool) "2 evicted" true (Buffer_pool.touch pool 2 = `Miss)

let test_pool_flush () =
  let stats = Io_stats.create () in
  let pool = Buffer_pool.create ~capacity:4 ~stats in
  ignore (Buffer_pool.touch pool 7);
  Buffer_pool.flush pool;
  Alcotest.(check int) "empty" 0 (Buffer_pool.resident pool);
  Alcotest.(check bool) "re-read is miss" true (Buffer_pool.touch pool 7 = `Miss)

let test_pool_flush_keeps_counters () =
  let stats = Io_stats.create () in
  let pool = Buffer_pool.create ~capacity:3 ~stats in
  ignore (Buffer_pool.touch pool 1);
  ignore (Buffer_pool.touch pool 1);
  ignore (Buffer_pool.touch pool 2);
  Buffer_pool.flush pool;
  Alcotest.(check int) "reads survive flush" 2 (Io_stats.page_reads stats);
  Alcotest.(check int) "hits survive flush" 1 (Io_stats.cache_hits stats);
  (* A second flush of an already-empty pool is a no-op. *)
  Buffer_pool.flush pool;
  Alcotest.(check int) "still empty" 0 (Buffer_pool.resident pool);
  ignore (Buffer_pool.touch pool 2);
  Alcotest.(check int) "post-flush miss accumulates" 3
    (Io_stats.page_reads stats)

let test_pool_capacity_one () =
  let stats = Io_stats.create () in
  let pool = Buffer_pool.create ~capacity:1 ~stats in
  Alcotest.(check bool) "first miss" true (Buffer_pool.touch pool 1 = `Miss);
  Alcotest.(check bool) "re-touch hits" true (Buffer_pool.touch pool 1 = `Hit);
  (* Every new page evicts the only resident one. *)
  Alcotest.(check bool) "2 misses" true (Buffer_pool.touch pool 2 = `Miss);
  Alcotest.(check int) "never more than one resident" 1
    (Buffer_pool.resident pool);
  Alcotest.(check bool) "1 was evicted" true (Buffer_pool.touch pool 1 = `Miss);
  Alcotest.(check bool) "2 was evicted in turn" true
    (Buffer_pool.touch pool 2 = `Miss);
  Alcotest.(check int) "resident stays 1" 1 (Buffer_pool.resident pool);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Buffer_pool.create: capacity") (fun () ->
      ignore (Buffer_pool.create ~capacity:0 ~stats))

let test_pool_retouch_eviction_victim () =
  let stats = Io_stats.create () in
  let pool = Buffer_pool.create ~capacity:2 ~stats in
  ignore (Buffer_pool.touch pool 1);
  ignore (Buffer_pool.touch pool 2);
  (* 3 evicts the LRU page 1; re-touching the victim must reload it (a
     miss) and evict 2, the new LRU — not resurrect stale residency. *)
  ignore (Buffer_pool.touch pool 3);
  Alcotest.(check bool) "victim reloads as miss" true
    (Buffer_pool.touch pool 1 = `Miss);
  Alcotest.(check bool) "3 survived" true (Buffer_pool.touch pool 3 = `Hit);
  Alcotest.(check bool) "2 was the next victim" true
    (Buffer_pool.touch pool 2 = `Miss);
  Alcotest.(check int) "capacity respected" 2 (Buffer_pool.resident pool)

(* --- Relation -------------------------------------------------------------- *)

let sample_batch n length =
  Simq_series.Generator.random_walks ~seed:5 ~count:n ~n:length

let test_relation_insert_get () =
  let r = Relation.create ~name:"stocks" () in
  let t1 = Relation.insert r ~name:"AAA" [| 1.; 2.; 3. |] in
  let t2 = Relation.insert r ~name:"BBB" [| 4.; 5.; 6. |] in
  Alcotest.(check int) "ids dense" 0 t1.Relation.id;
  Alcotest.(check int) "ids dense" 1 t2.Relation.id;
  Alcotest.(check int) "cardinality" 2 (Relation.cardinality r);
  let fetched = Relation.get r 1 in
  Alcotest.(check string) "name" "BBB" fetched.Relation.name;
  Alcotest.check_raises "unknown id" Not_found (fun () ->
      ignore (Relation.get r 5))

let test_relation_rejects_bad_series () =
  let r = Relation.create ~name:"bad" () in
  Alcotest.check_raises "empty series"
    (Invalid_argument "Series.validate: empty series") (fun () ->
      ignore (Relation.insert r ~name:"x" [||]))

let test_relation_scan_counts_pages () =
  (* 100 series of 128 floats: each tuple is 1056 bytes, so a 4096-byte
     page holds ~3; a full scan reads every page exactly once through
     the pool. *)
  let r = Relation.of_series ~name:"walks" (sample_batch 100 128) in
  let pages = Relation.pages r in
  Alcotest.(check bool) "plausible page count" true (pages >= 25 && pages <= 35);
  Io_stats.reset (Relation.stats r);
  let seen = Relation.fold r ~init:0 ~f:(fun acc _ -> acc + 1) in
  Alcotest.(check int) "all tuples" 100 seen;
  Alcotest.(check int) "page reads = pages" pages
    (Io_stats.page_reads (Relation.stats r))

let test_relation_repeated_scan_hits_cache () =
  let r =
    Relation.create ~name:"small" ~page_size:4096 ~pool_pages:64 ()
  in
  Array.iter
    (fun s -> ignore (Relation.insert r ~name:"w" s))
    (sample_batch 10 64);
  Io_stats.reset (Relation.stats r);
  Relation.iter r ~f:(fun _ -> ());
  let first_scan = Io_stats.page_reads (Relation.stats r) in
  Relation.iter r ~f:(fun _ -> ());
  Alcotest.(check int) "second scan free (fits in pool)" first_scan
    (Io_stats.page_reads (Relation.stats r))

let test_relation_save_load () =
  let r = Relation.of_series ~name:"persisted" (sample_batch 20 32) in
  let path = Filename.temp_file "simq" ".rel" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Relation.save r path;
      let r' = Relation.load path in
      Alcotest.(check string) "name" "persisted" (Relation.name r');
      Alcotest.(check int) "cardinality" 20 (Relation.cardinality r');
      let orig = Relation.to_array r and copy = Relation.to_array r' in
      Array.iteri
        (fun idx (t : Relation.tuple) ->
          Alcotest.(check bool) "same data" true
            (Simq_series.Series.equal t.Relation.data copy.(idx).Relation.data))
        orig)

let with_temp f =
  let path = Filename.temp_file "simq" ".rel" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let bits s = Array.map Int64.bits_of_float s

(* A relation file written word by word in {!Relation.save}'s layout,
   with its trailer, so a test can persist rows that [insert] would
   refuse. *)
let write_by_hand path ~n rows names =
  let oc = open_out_bin path in
  let w = Words.writer (Some oc) in
  Words.word w (Bytes.get_int64_le (Bytes.of_string "SIMQREL\001") 0);
  Words.int w 1;
  Words.int w (Array.length rows);
  Words.int w n;
  Words.int w 4;
  Words.bytes w "hand";
  Array.iter (Array.iter (Words.float w)) rows;
  let off = ref 0 in
  Array.iter
    (fun s ->
      Words.int w !off;
      off := !off + String.length s)
    names;
  Words.int w !off;
  Words.bytes w (String.concat "" (Array.to_list names));
  ignore (Words.finish w : int64);
  close_out oc

let rejected path =
  match Relation.load path with
  | _ -> false
  | exception Relation.Invalid_file _ -> true

(* [load] reads what [save] wrote: ids, names, data, page layout and
   counters are those of inserting every tuple again. *)
let test_relation_load_equals_reinsert () =
  let batch = sample_batch 30 40 in
  let inserted = Relation.create ~page_size:512 ~name:"hand" () in
  Array.iteri
    (fun idx data ->
      ignore (Relation.insert inserted ~name:(Printf.sprintf "t%d" idx) data))
    batch;
  Io_stats.reset (Relation.stats inserted);
  with_temp (fun path ->
      Relation.save inserted path;
      let loaded = Relation.load ~page_size:512 path in
      Alcotest.(check string) "name" "hand" (Relation.name loaded);
      Alcotest.(check int64) "digest" (Relation.digest inserted)
        (Relation.digest loaded);
      Array.iter2
        (fun (a : Relation.tuple) (b : Relation.tuple) ->
          Alcotest.(check int) "id" a.Relation.id b.Relation.id;
          Alcotest.(check string) "tuple name" a.Relation.name b.Relation.name;
          Alcotest.(check (array int64)) "data bits" (bits a.Relation.data)
            (bits b.Relation.data))
        (Relation.to_array inserted) (Relation.to_array loaded);
      let counters r =
        let s = Relation.stats r in
        [ Io_stats.page_reads s; Io_stats.page_writes s; Io_stats.cache_hits s ]
      in
      Alcotest.(check int) "pages" (Relation.pages inserted)
        (Relation.pages loaded);
      Alcotest.(check (list int)) "zeroed stats" [ 0; 0; 0 ] (counters loaded);
      (* The offsets: every tuple touches the pages the inserted one does. *)
      for id = 0 to Array.length batch - 1 do
        ignore (Relation.get inserted id);
        ignore (Relation.get loaded id);
        Alcotest.(check (list int)) "page traffic" (counters inserted)
          (counters loaded)
      done;
      let extra = [| 1.; 2. |] in
      Alcotest.(check int) "next insert's id"
        (Relation.insert inserted ~name:"x" extra).Relation.id
        (Relation.insert loaded ~name:"x" extra).Relation.id;
      Alcotest.(check (array int64)) "an insert leaves the rows"
        (bits batch.(7)) (bits (Relation.series loaded 7));
      Alcotest.(check bool) "and the file" false (rejected path))

let test_relation_load_rejects_bad_series () =
  List.iter
    (fun (what, n, rows) ->
      with_temp (fun path ->
          write_by_hand path ~n rows (Array.map (fun _ -> "x") rows);
          Alcotest.(check bool) what true (rejected path)))
    [
      ("a NaN", 2, [| [| 1.; 2. |]; [| 1.; Float.nan |] |]);
      ("an infinity", 2, [| [| Float.neg_infinity; 2. |] |]);
      ("empty series", 0, [| [||]; [||] |]);
    ];
  with_temp (fun path ->
      write_by_hand path ~n:2 [| [| 1.; 2. |]; [| 3.; 4. |] |] [| "a"; "bc" |];
      let r = Relation.load path in
      Alcotest.(check (list string)) "the hand-written file is valid"
        [ "a"; "bc" ]
        [ Relation.series_name r 0; Relation.series_name r 1 ])

(* Every byte of a small file flipped in turn, across the header, the
   rows, the name table and the trailer: each flip is refused as an
   invalid file, never read and never a crash. *)
let test_relation_byte_flips () =
  let r = Relation.of_series ~name:"flips" (sample_batch 3 5) in
  with_temp (fun path ->
      Relation.save r path;
      let good = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check bool) "the intact file loads" false (rejected path);
      String.iteri
        (fun at c ->
          List.iter
            (fun bit ->
              let b = Bytes.of_string good in
              Bytes.set b at (Char.chr (Char.code c lxor bit));
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_bytes oc b);
              if not (rejected path) then
                Alcotest.failf "byte %d xor %d of %d was read" at bit
                  (String.length good))
            [ 1; 0x80; 1 lsl (at mod 8) ])
        good)

(* A [Marshal] snapshot, the format before this one, is not a relation
   file; nor is a truncated file or an empty one. *)
let test_relation_refuses_old_and_short_files () =
  let tuples =
    [| { Relation.id = 0; name = "a"; data = [| 1.; 2. |] } |]
  in
  let message path =
    match Relation.load path with
    | _ -> Alcotest.fail "loaded"
    | exception Relation.Invalid_file m -> m
  in
  with_temp (fun path ->
      let oc = open_out_bin path in
      Marshal.to_channel oc ("hand", tuples) [];
      output_string oc (String.make 64 '\000');
      close_out oc;
      Alcotest.(check bool) "a Marshal snapshot: not a relation file" true
        (String.starts_with ~prefix:"not a relation file" (message path)));
  with_temp (fun path ->
      Relation.save (Relation.of_series ~name:"t" (sample_batch 4 8)) path;
      let whole = In_channel.with_open_bin path In_channel.input_all in
      List.iter
        (fun len ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (String.sub whole 0 len));
          Alcotest.(check bool)
            (Printf.sprintf "cut to %d bytes" len)
            true (rejected path))
        [ 0; 7; 8; 56; String.length whole - 8; String.length whole - 1 ]);
  Alcotest.check_raises "a directory"
    (Relation.Invalid_file
       (Printf.sprintf "not a relation file (not a regular file): %s"
          Filename.current_dir_name))
    (fun () -> ignore (Relation.load Filename.current_dir_name))

(* A ragged relation lives in memory, and [save] refuses it before
   writing anything. *)
let test_relation_ragged_not_saved () =
  let r = Relation.create ~name:"ragged" () in
  ignore (Relation.insert r ~name:"a" [| 1.; 2.; 3. |]);
  ignore (Relation.insert r ~name:"b" [| 4.; 5. |]);
  Alcotest.(check (option int)) "no common length" None (Relation.length r);
  Alcotest.(check (array int64)) "rows as inserted" (bits [| 4.; 5. |])
    (bits (Relation.series r 1));
  with_temp (fun path ->
      Sys.remove path;
      Alcotest.check_raises "refused"
        (Invalid_argument "Relation.save: series of unequal lengths")
        (fun () -> Relation.save r path);
      Alcotest.(check bool) "nothing written" false (Sys.file_exists path))

(* A block is a view of its parent's rows and names, laid out on pages
   as a fresh relation of the same series, with its own counters. *)
let test_relation_sub_is_a_view () =
  let batch = sample_batch 12 20 in
  let parent = Relation.of_series ~name:"p" batch in
  with_temp (fun path ->
      Relation.save parent path;
      List.iter
        (fun (what, parent) ->
          let block = Relation.sub parent ~name:"b" ~lo:4 ~width:5 in
          let fresh = Relation.of_series ~name:"f" (Array.sub batch 4 5) in
          Alcotest.(check int) (what ^ ": cardinality") 5
            (Relation.cardinality block);
          Alcotest.(check int) (what ^ ": pages") (Relation.pages fresh)
            (Relation.pages block);
          for i = 0 to 4 do
            Alcotest.(check (array int64)) (what ^ ": row")
              (bits batch.(4 + i)) (bits (Relation.series block i));
            Alcotest.(check string) (what ^ ": name")
              (Relation.series_name parent (4 + i))
              (Relation.series_name block i)
          done;
          Relation.iter block ~f:ignore;
          Alcotest.(check int) (what ^ ": its own page reads")
            (Relation.pages block)
            (Io_stats.page_reads (Relation.stats block));
          Alcotest.(check int) (what ^ ": none of the parent's") 0
            (Io_stats.page_reads (Relation.stats parent)))
        [ ("built", parent); ("loaded", Relation.load path) ])

let test_relation_to_array_and_iter_agree () =
  let r = Relation.of_series ~name:"x" (sample_batch 7 16) in
  let via_iter = ref [] in
  Relation.iter r ~f:(fun t -> via_iter := t.Relation.id :: !via_iter);
  let ids = Array.to_list (Array.map (fun (t : Relation.tuple) -> t.Relation.id) (Relation.to_array r)) in
  Alcotest.(check (list int)) "ids in order" ids (List.rev !via_iter)

(* --- Csv -------------------------------------------------------------------- *)

let test_csv_roundtrip () =
  let r = Relation.of_series ~name:"csv" (sample_batch 15 24) in
  let path = Filename.temp_file "simq" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.export r path;
      let r' = Csv.import ~name:"csv" path in
      Alcotest.(check int) "cardinality" 15 (Relation.cardinality r');
      Array.iteri
        (fun idx (t : Relation.tuple) ->
          let t' = Relation.get r' idx in
          Alcotest.(check string) "name" t.Relation.name t'.Relation.name;
          Alcotest.(check bool) "data" true
            (Simq_series.Series.equal ~eps:1e-12 t.Relation.data t'.Relation.data))
        (Relation.to_array r))

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

let test_csv_import_errors () =
  let path = Filename.temp_file "simq" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "a,1,2,3\nb,4,5\n";
      (try
         ignore (Csv.import ~name:"bad" path);
         Alcotest.fail "expected column mismatch"
       with Failure msg ->
         Alcotest.(check bool) "mentions line" true
           (String.length msg > 0
           && String.equal msg "Csv.import: line 2 has 2 values, expected 3"));
      write_file path "a,1,oops\n";
      (try
         ignore (Csv.import ~name:"bad" path);
         Alcotest.fail "expected bad number"
       with Failure msg ->
         Alcotest.(check string) "bad number message"
           "Csv.import: line 1: bad number \"oops\"" msg
         |> ignore);
      write_file path "\n\n";
      try
        ignore (Csv.import ~name:"bad" path);
        Alcotest.fail "expected empty error"
      with Failure msg ->
        Alcotest.(check string) "empty" "Csv.import: no series found" msg)

let test_csv_blank_lines_skipped () =
  let path = Filename.temp_file "simq" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "a,1,2\n\nb,3,4\n";
      let r = Csv.import ~name:"ok" path in
      Alcotest.(check int) "two series" 2 (Relation.cardinality r))

let test_csv_crlf () =
  let path = Filename.temp_file "simq" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* A Windows-written file: CRLF terminators, including a blank
         CRLF line and a final line without a terminator. *)
      write_file path "a,1,2\r\n\r\nb,3,4\r\nc,5,6";
      let r = Csv.import ~name:"crlf" path in
      Alcotest.(check int) "three series" 3 (Relation.cardinality r);
      let t = Relation.get r 1 in
      Alcotest.(check string) "name unpolluted" "b" t.Relation.name;
      Alcotest.(check bool) "values parse past the CR" true
        (Simq_series.Series.equal ~eps:0. t.Relation.data [| 3.; 4. |]))

let test_csv_rejects_non_finite () =
  let path = Filename.temp_file "simq" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* nan/inf parse as floats but poison every distance downstream;
         import must refuse them with the offending line number. *)
      write_file path "a,1,2\nb,nan,4\n";
      (try
         ignore (Csv.import ~name:"bad" path);
         Alcotest.fail "expected nan rejection"
       with Failure msg ->
         Alcotest.(check string) "nan message"
           "Csv.import: line 2: non-finite value \"nan\"" msg);
      write_file path "a,1,inf\n";
      try
        ignore (Csv.import ~name:"bad" path);
        Alcotest.fail "expected inf rejection"
      with Failure msg ->
        Alcotest.(check string) "inf message"
          "Csv.import: line 1: non-finite value \"inf\"" msg)

let () =
  Alcotest.run "simq_storage"
    [
      ("io_stats", [ Alcotest.test_case "counters" `Quick test_io_stats ]);
      ( "buffer_pool",
        [
          Alcotest.test_case "hit/miss" `Quick test_pool_hit_miss;
          Alcotest.test_case "lru order" `Quick test_pool_lru_order;
          Alcotest.test_case "flush" `Quick test_pool_flush;
          Alcotest.test_case "flush keeps counters" `Quick
            test_pool_flush_keeps_counters;
          Alcotest.test_case "capacity one" `Quick test_pool_capacity_one;
          Alcotest.test_case "re-touch eviction victim" `Quick
            test_pool_retouch_eviction_victim;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "import errors" `Quick test_csv_import_errors;
          Alcotest.test_case "blank lines skipped" `Quick
            test_csv_blank_lines_skipped;
          Alcotest.test_case "crlf terminators" `Quick test_csv_crlf;
          Alcotest.test_case "rejects non-finite values" `Quick
            test_csv_rejects_non_finite;
        ] );
      ( "relation",
        [
          Alcotest.test_case "insert/get" `Quick test_relation_insert_get;
          Alcotest.test_case "rejects bad series" `Quick
            test_relation_rejects_bad_series;
          Alcotest.test_case "scan counts pages" `Quick
            test_relation_scan_counts_pages;
          Alcotest.test_case "repeated scan hits cache" `Quick
            test_relation_repeated_scan_hits_cache;
          Alcotest.test_case "save/load" `Quick test_relation_save_load;
          Alcotest.test_case "load equals re-insertion" `Quick
            test_relation_load_equals_reinsert;
          Alcotest.test_case "load rejects bad series" `Quick
            test_relation_load_rejects_bad_series;
          Alcotest.test_case "every flipped byte refused" `Quick
            test_relation_byte_flips;
          Alcotest.test_case "old and short files refused" `Quick
            test_relation_refuses_old_and_short_files;
          Alcotest.test_case "ragged relation not saved" `Quick
            test_relation_ragged_not_saved;
          Alcotest.test_case "a block is a view" `Quick
            test_relation_sub_is_a_view;
          Alcotest.test_case "iteration order" `Quick
            test_relation_to_array_and_iter_agree;
        ] );
    ]
