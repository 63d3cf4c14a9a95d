module Cpx = Simq_dsp.Cpx
module Series = Simq_series.Series
module Coords = Simq_geometry.Coords
module Region = Simq_geometry.Region
module Rect = Simq_geometry.Rect
module Rstar = Simq_rtree.Rstar
module Metrics = Simq_obs.Metrics
module Profile = Simq_obs.Profile

let m_candidates =
  Metrics.counter ~help:"Window positions postprocessed by subsequence queries"
    "simq_subseq_candidates_total"

let m_survivors =
  Metrics.counter ~help:"Subsequence windows within epsilon"
    "simq_subseq_survivors_total"

(* A data entry covers [run] consecutive window positions of one series,
   starting at [first]; its rectangle is the MBR of their feature
   points. [run = 1] is the point-per-window layout. *)
type payload = {
  sid : int;
  first : int;
  run : int;
}

type t = {
  series : Series.t array;
  window : int;
  k : int;
  tree : payload Rstar.t;
  count : int;  (* window positions *)
  entries : int;  (* index entries (= count without trails) *)
}

type hit = {
  series_id : int;
  offset : int;
  distance : float;
}

let features ~k values =
  Simq_dsp.Flat.sub (Simq_dsp.Fft.fft_real_flat values) ~pos:0 ~len:k

let encode ~k values = Coords.encode Coords.Rectangular (features ~k values)

let build ?(k = 3) ?(max_fill = 32) ?trail ~window series =
  if window <= 0 then invalid_arg "Subseq.build: window must be positive";
  if k < 1 || k > window then invalid_arg "Subseq.build: need 1 <= k <= window";
  (match trail with
  | Some t when t < 1 -> invalid_arg "Subseq.build: trail must be >= 1"
  | _ -> ());
  Array.iter
    (fun s ->
      if Series.length s < window then
        invalid_arg "Subseq.build: window exceeds a series length")
    series;
  let run_length = Option.value trail ~default:1 in
  let items = ref [] in
  let count = ref 0 in
  Array.iteri
    (fun sid s ->
      let positions = Series.length s - window + 1 in
      count := !count + positions;
      let first = ref 0 in
      while !first < positions do
        let run = min run_length (positions - !first) in
        let mbr = ref None in
        for offset = !first to !first + run - 1 do
          let slice = Series.subsequence s ~pos:offset ~len:window in
          let p = Rect.of_point (encode ~k slice) in
          mbr :=
            Some
              (match !mbr with
              | None -> p
              | Some acc -> Rect.union acc p)
        done;
        (match !mbr with
        | Some rect -> items := (rect, { sid; first = !first; run }) :: !items
        | None -> ());
        first := !first + run
      done)
    series;
  let items = Array.of_list !items in
  let tree = Simq_rtree.Bulk.load_rects ~max_fill ~dims:(2 * k) items in
  { series; window; k; tree; count = !count; entries = Array.length items }

let window t = t.window
let windows_indexed t = t.count
let index_entries t = t.entries

let check_query t query =
  if Series.length query <> t.window then
    invalid_arg
      (Printf.sprintf "Subseq: query length %d, expected %d"
         (Series.length query) t.window)

let true_distance t query ~sid ~offset =
  let slice = Series.subsequence t.series.(sid) ~pos:offset ~len:t.window in
  Simq_series.Distance.euclidean slice query

(* Expand a candidate entry: test every window position it covers. *)
let expand_candidate t query ~epsilon payload acc =
  let result = ref acc in
  for offset = payload.first to payload.first + payload.run - 1 do
    let distance = true_distance t query ~sid:payload.sid ~offset in
    if distance <= epsilon then
      result := { series_id = payload.sid; offset; distance } :: !result
  done;
  !result

(* Node accesses are counted locally and credited afterwards. *)
let range ?profile t ~query ~epsilon =
  check_query t query;
  if epsilon < 0. then invalid_arg "Subseq.range: negative epsilon";
  Profile.with_op profile "subseq.range" @@ fun pn ->
  let query_features = features ~k:t.k query in
  let region =
    Coords.search_region Coords.Rectangular ~query:query_features ~epsilon
  in
  let candidates = ref 0 in
  let hits, accesses =
    Profile.with_op profile "subseq.descent" @@ fun pd ->
    let ((_, accesses) as found) =
      Rstar.fold_region_counted t.tree
        ~overlaps:(fun r -> Region.intersects_rect region r)
        ~matches:(fun r _ -> Region.intersects_rect region r)
        ~init:[]
        ~f:(fun acc _ payload ->
          candidates := !candidates + payload.run;
          expand_candidate t query ~epsilon payload acc)
    in
    Rstar.add_accesses t.tree accesses;
    Profile.add_pages pd accesses;
    Profile.add_rows_out pd !candidates;
    found
  in
  let hits =
    Profile.with_op profile "subseq.postfilter" @@ fun pp ->
    let hits =
      List.sort
        (fun a b -> compare (a.series_id, a.offset) (b.series_id, b.offset))
        hits
    in
    Profile.add_rows_in pp !candidates;
    Profile.add_rows_out pp (List.length hits);
    hits
  in
  let survivors = List.length hits in
  Profile.add_candidates pn !candidates;
  Profile.add_survivors pn survivors;
  Profile.add_pages pn accesses;
  Profile.add_rows_out pn survivors;
  Metrics.add m_candidates !candidates;
  Metrics.add m_survivors survivors;
  (hits, !candidates)

let nearest ?profile t ~query ~k =
  check_query t query;
  Profile.with_op profile "subseq.nearest" @@ fun pn ->
  Profile.set_detail pn (Printf.sprintf "k=%d" k);
  let query_point = encode ~k:t.k query in
  let visits = ref 0 in
  let visit = Option.map (fun _ () -> incr visits) pn in
  (* With trails an entry stands for [run] windows; best-first over
     entries keyed by the minimum distance of their windows, expanded as
     they surface, stays exact because the feature-space MINDIST
     lower-bounds every window the rectangle covers. *)
  Simq_rtree.Nn.best_first ?visit t.tree
    ~node_bound:(fun r c -> c.Simq_dsp.Flat.sum <- Rect.mindist query_point r)
    ~key:(fun _ payload c ->
      Profile.add_candidates pn payload.run;
      let best = ref Float.infinity in
      for offset = payload.first to payload.first + payload.run - 1 do
        best :=
          Float.min !best (true_distance t query ~sid:payload.sid ~offset)
      done;
      c.Simq_dsp.Flat.sum <- !best)
    ~rank:(fun _ -> 0) ~k
  |> List.concat_map (fun (_, payload, best) ->
         (* Report the windows of this entry achieving its distance tier:
            re-rank all its windows and keep them; the final take below
            restores global order. *)
         let all = ref [] in
         for offset = payload.first to payload.first + payload.run - 1 do
           all :=
             {
               series_id = payload.sid;
               offset;
               distance = true_distance t query ~sid:payload.sid ~offset;
             }
             :: !all
         done;
         ignore best;
         !all)
  |> List.sort (fun a b -> Float.compare a.distance b.distance)
  |> List.filteri (fun i _ -> i < k)
  |> fun hits ->
  Profile.add_pages pn !visits;
  Profile.add_rows_out pn (List.length hits);
  hits
