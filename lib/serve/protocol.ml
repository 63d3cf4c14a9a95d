let max_line_bytes = 65536

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i =
    if i >= n then Ok (Buffer.contents buf)
    else
      match s.[i] with
      | '\\' ->
        if i + 1 >= n then Error "dangling backslash at end of line"
        else begin
          match s.[i + 1] with
          | '\\' -> Buffer.add_char buf '\\'; go (i + 2)
          | 'n' -> Buffer.add_char buf '\n'; go (i + 2)
          | 'r' -> Buffer.add_char buf '\r'; go (i + 2)
          | 't' -> Buffer.add_char buf '\t'; go (i + 2)
          | c -> Error (Printf.sprintf "unknown escape \\%c" c)
        end
      | c -> Buffer.add_char buf c; go (i + 1)
  in
  go 0

type request =
  | Ping
  | Shutdown
  | Slow
  | Query of {
      profile : bool;
      spec : string;
    }

let profile_prefix = "profile "

let parse_request line =
  if line = "ping" then Ok Ping
  else if line = "shutdown" then Ok Shutdown
  else if line = "slow" then Ok Slow
  else begin
    let profile, payload =
      let p = String.length profile_prefix in
      if String.length line > p && String.sub line 0 p = profile_prefix then
        (true, String.sub line p (String.length line - p))
      else (false, line)
    in
    match unescape payload with
    | Ok spec -> Ok (Query { profile; spec })
    | Error msg -> Error msg
  end

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

module J = Simq_obs.Json

let head ~event ~seq = [ ("event", J.Str event); ("v", J.Num 1.); ("seq", J.Num (float_of_int seq)) ]

let opt_str = function None -> J.Null | Some s -> J.Str s

let partial_field partial = if partial then [ ("partial", J.Bool true) ] else []

let result_line ~event ~seq ?digest ?profile (note : Engine.note) result =
  let digest =
    match digest with None -> [] | Some d -> [ ("digest", J.Str d) ]
  in
  let answer =
    match result with
    | Ok (o : Engine.outcome) ->
      [ ("answers", J.Num (float_of_int o.Engine.answers)) ]
      @ partial_field note.Engine.note_partial
      @ [ ("results", o.Engine.results) ]
    | Error message -> [ ("error", J.Str message) ]
  in
  let profile =
    match profile with None -> [] | Some p -> [ ("profile", p) ]
  in
  (* An error line names no path: the query answered nothing. *)
  let path =
    match result with Ok _ -> opt_str note.Engine.note_path | Error _ -> J.Null
  in
  J.to_string
    (J.Obj
       (head ~event ~seq
       @ (("spec", J.Str note.Engine.note_spec) :: digest)
       @ [
           ("path", path);
           ("decision", opt_str note.Engine.note_decision);
           ("outcome", J.Str note.Engine.note_outcome);
           ("exit", J.Num (float_of_int note.Engine.note_exit));
         ]
       @ answer
       @ [ ("duration_ms", J.Num (note.Engine.note_duration_s *. 1000.)) ]
       @ profile))

let ok_line ~seq ~spec ~path ~decision ?(partial = false) ~answers ~results
    ~duration_s ?profile () =
  let note = Engine.note () in
  note.Engine.note_spec <- spec;
  note.Engine.note_path <- path;
  note.Engine.note_decision <- decision;
  note.Engine.note_partial <- partial;
  note.Engine.note_duration_s <- duration_s;
  result_line ~event:"simq.serve" ~seq ?profile note
    (Ok { Engine.partial; answers; results })

let error_line ~seq ~outcome ~exit_code ~message () =
  J.to_string
    (J.Obj
       (head ~event:"simq.serve" ~seq
       @ [
           ("spec", J.Null);
           ("outcome", J.Str outcome);
           ("exit", J.Num (float_of_int exit_code));
           ("error", J.Str message);
         ]))

let pong_line ~seq = J.to_string (J.Obj (head ~event:"simq.serve.pong" ~seq))

let slow_line ~seq slow =
  J.to_string (J.Obj (head ~event:"simq.serve.slow" ~seq @ [ ("slow", slow) ]))

let shutdown_line ~seq =
  J.to_string (J.Obj (head ~event:"simq.serve.shutdown" ~seq))
