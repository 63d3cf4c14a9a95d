(* Per-query operator-tree profiling. See profile.mli. *)

type node = {
  node_name : string;
  mutable node_detail : string;
  start_ns : int64;
  mutable node_wall_ns : int64;
  mutable node_rows_in : int;
  mutable node_rows_out : int;
  mutable node_pages : int;
  mutable node_candidates : int;
  mutable node_survivors : int;
  mutable node_early_abandon : int;
  mutable node_events : string list; (* reversed *)
  mutable node_children : node list; (* reversed *)
}

type t = {
  mutable roots_rev : node list;
  mutable stack : node list; (* innermost first *)
  mutable trace_id : int; (* 0 = unstamped *)
}

let create () = { roots_rev = []; stack = []; trace_id = 0 }
let set_trace t id = t.trace_id <- id
let trace_id t = t.trace_id

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let enter t name =
  match t with
  | None -> None
  | Some t ->
      let node =
        {
          node_name = name;
          node_detail = "";
          start_ns = Clock.now_ns ();
          node_wall_ns = 0L;
          node_rows_in = 0;
          node_rows_out = 0;
          node_pages = 0;
          node_candidates = 0;
          node_survivors = 0;
          node_early_abandon = 0;
          node_events = [];
          node_children = [];
        }
      in
      (match t.stack with
      | parent :: _ -> parent.node_children <- node :: parent.node_children
      | [] -> t.roots_rev <- node :: t.roots_rev);
      t.stack <- node :: t.stack;
      Some node

let current t =
  match t with
  | Some { stack = node :: _; _ } -> Some node
  | Some { stack = []; _ } | None -> None

(* Brackets nest, so the node closed is always the innermost open one. *)
let leave t node =
  match (t, node) with
  | Some t, Some node ->
      node.node_wall_ns <- Int64.sub (Clock.now_ns ()) node.start_ns;
      t.stack <- List.tl t.stack
  | None, _ | _, None -> ()

(* The bracket: one node and one span of the same name, closed in
   reverse order under one [Fun.protect]. With no profile and tracing
   off there is nothing to open, so [f] runs bare. *)
let with_op t name f =
  match t with
  | None when not (Trace.on ()) -> f None
  | _ ->
      let node = enter t name in
      let span = Trace.start name in
      Fun.protect
        ~finally:(fun () ->
          Trace.finish span;
          leave t node)
        (fun () -> f node)

let set_detail node d =
  match node with None -> () | Some node -> node.node_detail <- d

let add_rows_in node n =
  match node with
  | None -> ()
  | Some node -> node.node_rows_in <- node.node_rows_in + n

let add_rows_out node n =
  match node with
  | None -> ()
  | Some node -> node.node_rows_out <- node.node_rows_out + n

let add_pages node n =
  match node with
  | None -> ()
  | Some node -> node.node_pages <- node.node_pages + n

let add_candidates node n =
  match node with
  | None -> ()
  | Some node -> node.node_candidates <- node.node_candidates + n

let add_survivors node n =
  match node with
  | None -> ()
  | Some node -> node.node_survivors <- node.node_survivors + n

let add_early_abandon node n =
  match node with
  | None -> ()
  | Some node -> node.node_early_abandon <- node.node_early_abandon + n

let add_event node e =
  match node with
  | None -> ()
  | Some node -> node.node_events <- e :: node.node_events

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

let roots t = List.rev t.roots_rev
let children node = List.rev node.node_children
let name node = node.node_name
let detail node = node.node_detail
let rows_in node = node.node_rows_in
let rows_out node = node.node_rows_out
let pages node = node.node_pages
let candidates node = node.node_candidates
let survivors node = node.node_survivors
let events node = List.rev node.node_events

let find t wanted =
  let rec dfs = function
    | [] -> None
    | node :: rest ->
        if node.node_name = wanted then Some node
        else (
          match dfs (children node) with
          | Some _ as hit -> hit
          | None -> dfs rest)
  in
  dfs (roots t)

let well_formed t =
  let rec ok node =
    let children = children node in
    let child_sum =
      List.fold_left
        (fun acc c -> Int64.add acc c.node_wall_ns)
        0L children
    in
    node.node_rows_in >= 0
    && node.node_rows_out >= 0
    && node.node_pages >= 0
    && node.node_candidates >= 0
    && node.node_survivors >= 0
    && node.node_early_abandon >= 0
    && Int64.compare node.node_wall_ns child_sum >= 0
    && List.for_all ok children
  in
  t.stack = [] && List.for_all ok (roots t)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let fields ~timings node =
  let parts = ref [] in
  let add name v = if v <> 0 then parts := Printf.sprintf "%s=%d" name v :: !parts in
  add "early_abandon" node.node_early_abandon;
  add "survivors" node.node_survivors;
  add "candidates" node.node_candidates;
  add "pages" node.node_pages;
  add "rows_out" node.node_rows_out;
  add "rows_in" node.node_rows_in;
  if timings then
    parts :=
      Printf.sprintf "time=%.3fms" (Int64.to_float node.node_wall_ns /. 1e6)
      :: !parts;
  !parts

let render ?(timings = true) t =
  let buf = Buffer.create 256 in
  let rec emit depth node =
    Buffer.add_string buf (String.make (2 * depth) ' ');
    Buffer.add_string buf "-> ";
    Buffer.add_string buf node.node_name;
    if node.node_detail <> "" then (
      Buffer.add_string buf " [";
      Buffer.add_string buf node.node_detail;
      Buffer.add_char buf ']');
    (match fields ~timings node with
    | [] -> ()
    | parts ->
        Buffer.add_string buf "  (";
        Buffer.add_string buf (String.concat " " parts);
        Buffer.add_char buf ')');
    Buffer.add_char buf '\n';
    List.iter
      (fun e ->
        Buffer.add_string buf (String.make ((2 * depth) + 3) ' ');
        Buffer.add_string buf "! ";
        Buffer.add_string buf e;
        Buffer.add_char buf '\n')
      (events node);
    List.iter (emit (depth + 1)) (children node)
  in
  List.iter (emit 0) (roots t);
  Buffer.contents buf

let to_json ?(timings = true) t =
  let rec node_json node =
    let field name v acc = if v = 0 then acc else (name, Json.Num (float_of_int v)) :: acc in
    let fields =
      []
      |> fun acc ->
      (match children node with
      | [] -> acc
      | kids -> [ ("children", Json.Arr (List.map node_json kids)) ])
      |> fun acc ->
      (match events node with
      | [] -> acc
      | evs -> ("events", Json.Arr (List.map (fun e -> Json.Str e) evs)) :: acc)
      |> field "early_abandon" node.node_early_abandon
      |> field "survivors" node.node_survivors
      |> field "candidates" node.node_candidates
      |> field "pages" node.node_pages
      |> field "rows_out" node.node_rows_out
      |> field "rows_in" node.node_rows_in
      |> fun acc ->
      (if timings then
         ("time_ms", Json.Num (Int64.to_float node.node_wall_ns /. 1e6)) :: acc
       else acc)
      |> fun acc ->
      (if node.node_detail <> "" then ("detail", Json.Str node.node_detail) :: acc
       else acc)
    in
    Json.Obj (("op", Json.Str node.node_name) :: fields)
  in
  Json.Obj
    (("event", Json.Str "simq.profile")
     :: ("v", Json.Num 1.)
     ::
     (if t.trace_id <> 0 then
        [ ("trace_id", Json.Num (float_of_int t.trace_id)) ]
      else [])
    @ [ ("roots", Json.Arr (List.map node_json (roots t))) ])
