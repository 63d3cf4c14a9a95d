(* The benchmark's inputs: every relation and every query spec is a pure
   function of the workload and the seed given on the command line. *)

type workload = Serve_mix | Batch_lookup | Oneshot

let all = [ Serve_mix; Batch_lookup; Oneshot ]

let name = function
  | Serve_mix -> "serve-mix"
  | Batch_lookup -> "batch-lookup"
  | Oneshot -> "oneshot"

let of_name s = List.find_opt (fun w -> name w = s) all

(* The [simq generate] default length. *)
let series_length = 128

let cardinality = function
  | Serve_mix -> 1067
  | Batch_lookup -> 16_000
  | Oneshot -> 4_000

(* The seed a run uses when none is given, and the one kept aside for
   validating a claimed gain: neither is used while tuning a change. *)
let default_seed = Simq_experiments.Bench_util.derived_seed 1101
let holdout_seed = Simq_experiments.Bench_util.derived_seed 2202

(* Independent streams: the data, and the [i]-th block of query specs,
   never share a PRNG seed. [Hashtbl.hash] is stable across runs. *)
let data_seed ~seed = Hashtbl.hash (seed, "data")
let block_seed ~seed i = Hashtbl.hash (seed, "specs", i)

let series w ~seed =
  Simq_workload.Stocklike.batch ~seed:(data_seed ~seed) ~count:(cardinality w)
    ~n:series_length

let relation w ~seed =
  Simq_storage.Relation.of_series ~name:"r" (series w ~seed)

let write_relation w ~seed path = Simq_storage.Relation.save (relation w ~seed) path

let is_pairs spec = String.length spec >= 5 && String.sub spec 0 5 = "PAIRS"

(* Block [i] of a workload's spec stream. serve-mix poses the full
   spec mix; batch-lookup the RANGE/NEAREST lines of the skewed mix
   (one PAIRS over 16,000 series takes seconds); oneshot the
   RANGE/NEAREST lines of the plain mix. *)
let block_size = 256

let spec_block w ~seed i =
  let mix ?skew () =
    Simq_workload.Queries.spec_mix ?skew ~seed:(block_seed ~seed i)
      ~cardinality:(cardinality w) ~count:block_size ()
  in
  match w with
  | Serve_mix -> mix ()
  | Batch_lookup -> List.filter (fun s -> not (is_pairs s)) (mix ~skew:0.5 ())
  | Oneshot -> List.filter (fun s -> not (is_pairs s)) (mix ())

(* The spec stream, taken [n] specs at a time: block after block, as
   far as the caller goes. [stream w ~seed n] is its first [n] specs. *)
let stream w ~seed =
  let pending = Queue.create () and next = ref 0 in
  fun n ->
    while Queue.length pending < n do
      List.iter (fun s -> Queue.add s pending) (spec_block w ~seed !next);
      incr next
    done;
    Array.init n (fun _ -> Queue.pop pending)

(* serve-mix is posed by [Simq_serve.Stress] in rounds; round [r] is
   seeded here and Stress splits that seed per client. *)
let round_seed ~seed r = Hashtbl.hash (seed, "round", r)
