(** Minimal JSON parser and printer.  Every machine-readable report
    (BENCH_cos.json, metrics blocks, Chrome trace files, lint diagnostics)
    is built as a {!t} value and printed by {!to_string}; tests and the
    bench gates read reports back with {!parse}.  Standard JSON: objects,
    arrays, strings with escapes, numbers, booleans and null. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** [parse s] parses one JSON value, requiring only trailing whitespace
    after it.  [Error msg] carries a character offset. *)

val member : string -> t -> t option
(** Field lookup; [None] when the value is not an object or lacks the
    field. *)

val as_num : t -> float option
val as_str : t -> string option
val as_arr : t -> t list option

val quote : string -> string
(** Render a string as a JSON string literal, escaping quotes, backslashes
    and control characters — the encoding dual of {!parse}'s string
    reader. *)

val to_string : t -> string
(** The one layout: an array or object whose members are all scalars
    prints on one line ([{ "a": 1, "b": "x" }]); any other container puts
    one member per line, indented two spaces per level.  Numbers print in
    shortest round-trip form, so [parse (to_string v) = Ok v] for every
    value whose numbers are finite; non-finite numbers print as [null].
    No trailing newline. *)

val fixed : int -> float -> t
(** [fixed d x] is [Num x] rounded to [d] decimals, exactly as [%.{d}f]
    prints it: a report states its precision in the value, not in a
    format string. *)

val digits : int -> float -> t
(** [digits d x] is [Num x] rounded to [d] significant digits, exactly as
    [%.{d}g] prints it. *)

val int : int -> t
