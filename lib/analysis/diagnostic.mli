(** One static-analysis finding at a precise source position. *)

type t = {
  rule : string;  (** rule id, e.g. ["platform-primitives"] *)
  path : string;  (** normalized ('/'-separated) path the file was analyzed as *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based column, the compiler's convention *)
  off : int;  (** absolute character offset (suppression containment) *)
  message : string;
}

val compare : t -> t -> int
(** Source order within a path, then rule/message — rendering order. *)

val to_string : t -> string
(** ["path:line:col: [rule-id] message"] — the text output format. *)

val to_json : t -> Psmr_util.Json.t
(** One JSON object; [off] is deliberately not part of the schema. *)
