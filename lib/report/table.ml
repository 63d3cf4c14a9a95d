type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;  (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: cell count mismatch";
  t.rows <- cells :: t.rows

let rows t = List.rev t.rows

(* Slug for CSV file names derived from the table title. *)
let slug title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '-')
    title
  |> fun s ->
  (* Collapse runs of dashes and trim. *)
  let buf = Buffer.create (String.length s) in
  let last_dash = ref true in
  String.iter
    (fun c ->
      if c = '-' then begin
        if not !last_dash then Buffer.add_char buf '-';
        last_dash := true
      end
      else begin
        Buffer.add_char buf c;
        last_dash := false
      end)
    s;
  let s = Buffer.contents buf in
  if String.length s > 0 && s.[String.length s - 1] = '-' then
    String.sub s 0 (String.length s - 1)
  else s

let escape_csv cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let save_csv t path =
  let line row = String.concat "," (List.map escape_csv row) ^ "\n" in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun row -> output_string oc (line row)) (t.columns :: rows t))

let print t =
  let all = t.columns :: rows t in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w c -> max w (String.length c)) acc row)
      (List.map (fun _ -> 0) t.columns)
      all
  in
  let print_row row =
    let cells =
      List.map2 (fun w c -> Printf.sprintf "%-*s" w c) widths row
    in
    print_endline ("  " ^ String.concat "  " cells)
  in
  print_endline t.title;
  print_row t.columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row (rows t);
  print_newline ();
  (* Optional side channel for plotting: SIMQ_CSV_DIR=out/ saves every
     printed table as CSV next to the terminal output. *)
  match Sys.getenv_opt "SIMQ_CSV_DIR" with
  | None -> ()
  | Some dir ->
    if Sys.file_exists dir && Sys.is_directory dir then
      save_csv t (Filename.concat dir (slug t.title ^ ".csv"))

