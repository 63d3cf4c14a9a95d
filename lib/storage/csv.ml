let export relation path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for id = 0 to Relation.cardinality relation - 1 do
        let name = Relation.series_name relation id in
        if String.contains name ',' || String.contains name '\n' then
          failwith ("Csv.export: unquotable name " ^ name);
        output_string oc name;
        Array.iter
          (fun v -> Printf.fprintf oc ",%.17g" v)
          (Relation.series relation id);
        output_char oc '\n'
      done)

let import ?page_size ?pool_pages ~name path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rows = ref [] in
      let expected_columns = ref None in
      let line_number = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr line_number;
           (* Tolerate CRLF files: input_line keeps the '\r'. *)
           let line =
             let len = String.length line in
             if len > 0 && line.[len - 1] = '\r' then String.sub line 0 (len - 1)
             else line
           in
           if String.trim line <> "" then begin
             match String.split_on_char ',' line with
             | [] | [ _ ] ->
               failwith
                 (Printf.sprintf "Csv.import: line %d has no values"
                    !line_number)
             | series_name :: cells ->
               let columns = List.length cells in
               (match !expected_columns with
               | None -> expected_columns := Some columns
               | Some expected when expected <> columns ->
                 failwith
                   (Printf.sprintf
                      "Csv.import: line %d has %d values, expected %d"
                      !line_number columns expected)
               | Some _ -> ());
               let data =
                 Array.of_list
                   (List.map
                      (fun cell ->
                        match float_of_string_opt (String.trim cell) with
                        | Some v when Float.is_finite v -> v
                        | Some _ ->
                          failwith
                            (Printf.sprintf
                               "Csv.import: line %d: non-finite value %S"
                               !line_number cell)
                        | None ->
                          failwith
                            (Printf.sprintf
                               "Csv.import: line %d: bad number %S"
                               !line_number cell))
                      cells)
               in
               rows := (series_name, data) :: !rows
           end
         done
       with End_of_file -> ());
      if !rows = [] then failwith "Csv.import: no series found";
      let rows = Array.of_list (List.rev !rows) in
      Relation.of_rows ?page_size ?pool_pages ~name ~names:(Array.map fst rows)
        (Array.map snd rows))
