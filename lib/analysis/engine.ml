(* The driver layer: parse files with the compiler's own parser, collect
   scope-resolved facts once, run every applicable rule, honor
   [@psmr.allow] suppressions, render text or JSON.  [bin/psmr_lint] is a
   thin CLI over exactly this module; tests call it directly with fixture
   sources and a virtual path (the path decides which rules apply). *)

let normalize path = String.map (fun c -> if c = '\\' then '/' else c) path

let parse ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  try
    if Filename.check_suffix path ".mli" then
      Ok (Scope.Intf (Parse.interface lexbuf))
    else Ok (Scope.Impl (Parse.implementation lexbuf))
  with _ ->
    let p = lexbuf.Lexing.lex_curr_p in
    Error
      {
        Diagnostic.rule = "parse-error";
        path;
        line = p.pos_lnum;
        col = p.pos_cnum - p.pos_bol;
        off = p.pos_cnum;
        message = "file does not parse";
      }

let suppressed (info : Scope.info) (d : Diagnostic.t) =
  List.exists
    (fun (r : Scope.region) ->
      r.rule = d.rule && r.start_off <= d.off && d.off <= r.end_off)
    info.regions

let analyze_source ?(rules = Rules.all) ~path source =
  let path = normalize path in
  match parse ~path source with
  | Error d -> [ d ]
  | Ok ast ->
      let info = Scope.collect ast in
      let input = { Rule.path; ast; info } in
      rules
      |> List.concat_map (fun (r : Rule.t) ->
             if r.applies path then r.check input else [])
      |> List.filter (fun d -> not (suppressed info d))
      |> List.sort_uniq Diagnostic.compare

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let analyze_file ?rules path =
  analyze_source ?rules ~path (read_file path)

(* Every .ml/.mli under the roots, skipping _build and dot-directories.
   Sorted so output order is stable across filesystems. *)
let scan_roots roots =
  let rec walk dir acc =
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then
          if entry = "_build" || (String.length entry > 0 && entry.[0] = '.')
          then acc
          else walk path acc
        else if
          Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
        then path :: acc
        else acc)
      acc (Sys.readdir dir)
  in
  List.concat_map
    (fun root -> if Sys.file_exists root then walk root [] else [])
    roots
  |> List.sort compare

let analyze_roots ?rules roots =
  let files = scan_roots roots in
  (List.length files, List.concat_map (fun f -> analyze_file ?rules f) files)

let render_text ~files ~rules diags =
  match diags with
  | [] ->
      Printf.sprintf "static analysis: %d files clean (%d rules)\n" files
        (List.length rules)
  | _ ->
      String.concat ""
        (List.map (fun d -> Diagnostic.to_string d ^ "\n") diags)

let render_json ~files diags =
  let module J = Psmr_util.Json in
  J.to_string
    (J.Obj
       [
         ("version", J.int 1); ("files", J.int files);
         ("diagnostics", J.Arr (List.map Diagnostic.to_json diags));
       ])
  ^ "\n"
