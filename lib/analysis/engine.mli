(** Parse, analyze, render.  The [path] a source is analyzed under decides
    which rules apply (rules scope by directory), so tests can analyze
    fixture text under a virtual path like ["lib/cos/bad.ml"]. *)

val analyze_source :
  ?rules:Rule.t list -> path:string -> string -> Diagnostic.t list
(** Analyze one file's text.  A file that does not parse yields a single
    ["parse-error"] diagnostic.  Diagnostics are sorted and deduplicated;
    [@psmr.allow]-suppressed ones are dropped. *)

val analyze_roots :
  ?rules:Rule.t list -> string list -> int * Diagnostic.t list
(** [(files_scanned, diagnostics)] over every .ml/.mli under the roots
    (skipping [_build] and dot-dirs), in sorted path order; paths are
    analyzed with backslashes turned to forward slashes. *)

val render_text : files:int -> rules:Rule.t list -> Diagnostic.t list -> string
val render_json : files:int -> Diagnostic.t list -> string
