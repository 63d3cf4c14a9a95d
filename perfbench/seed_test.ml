(* One seed yields a byte-identical relation file and spec stream for
   every workload; another seed yields different ones. *)

open Perfbench

let read path = In_channel.with_open_bin path In_channel.input_all

let relation_bytes w ~seed =
  let path = Filename.temp_file ~temp_dir:(Sys.getcwd ()) "perfbench" ".rel" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Inputs.write_relation w ~seed path;
      read path)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

let () =
  let seed = Inputs.default_seed and other = Inputs.holdout_seed in
  List.iter
    (fun w ->
      let name = Inputs.name w in
      (* The largest relation's bytes are checked through its series
         only, to keep the test quick. *)
      (match w with
      | Inputs.Batch_lookup ->
        check (name ^ ": same seed, same series")
          (Inputs.series w ~seed = Inputs.series w ~seed);
        check (name ^ ": other seed, other series")
          (Inputs.series w ~seed <> Inputs.series w ~seed:other)
      | Inputs.Serve_mix | Inputs.Oneshot ->
        let a = relation_bytes w ~seed in
        check (name ^ ": same seed, same relation bytes")
          (a = relation_bytes w ~seed);
        check (name ^ ": other seed, other relation bytes")
          (a <> relation_bytes w ~seed:other));
      let specs = Inputs.stream w ~seed 600 in
      check (name ^ ": same seed, same specs") (specs = Inputs.stream w ~seed 600);
      check (name ^ ": other seed, other specs")
        (specs <> Inputs.stream w ~seed:other 600);
      check (name ^ ": stream holds 600 specs") (Array.length specs = 600);
      let next = Inputs.stream w ~seed in
      check (name ^ ": taken in windows, the same stream")
        (Array.concat (List.init 5 (fun _ -> next 120)) = specs))
    Inputs.all;
  check "serve-mix rounds are seeded apart"
    (Inputs.round_seed ~seed 0 <> Inputs.round_seed ~seed 1
    && Inputs.round_seed ~seed 0 <> Inputs.round_seed ~seed:other 0);
  if !failures > 0 then exit 1 else print_endline "seed_test: ok"
