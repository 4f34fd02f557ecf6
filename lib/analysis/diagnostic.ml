(* A single finding: rule id, position, message.  [off] is the absolute
   character offset of the position in the file; it never appears in
   rendered output but is what suppression-region containment checks
   against. *)

type t = {
  rule : string;
  path : string;
  line : int;
  col : int;  (* 0-based, like the compiler's "characters N-M" *)
  off : int;
  message : string;
}

let compare a b =
  let c = String.compare a.path b.path in
  if c <> 0 then c
  else
    let c = Int.compare a.off b.off in
    if c <> 0 then c
    else
      let c = String.compare a.rule b.rule in
      if c <> 0 then c else String.compare a.message b.message

let to_string d =
  Printf.sprintf "%s:%d:%d: [%s] %s" d.path d.line d.col d.rule d.message

let to_json d =
  let module J = Psmr_util.Json in
  J.Obj
    [
      ("rule", J.Str d.rule); ("path", J.Str d.path); ("line", J.int d.line);
      ("col", J.int d.col); ("message", J.Str d.message);
    ]
