(** Scope-aware reference collection: one AST walk that resolves every
    qualified reference through aliases, [open]s, [let module] bindings and
    functor parameters, and returns the resolved references as flat facts
    for rules to match on.  See the implementation header for the
    resolution policy. *)

type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

type event =
  | Value of string list
      (** Resolved value path ([["Mutex"; "lock"]]); unqualified identifiers
          and operators are single-element ([["=="]]).  Leading [Stdlib.] is
          stripped. *)
  | Module of string list
      (** A module referenced as a whole: alias target, [open]/[include]
          target, functor argument. *)
  | Type of string list
      (** Qualified type-constructor path ([["Thread"; "t"]]). *)

type fact = {
  ev : event;
  loc : Location.t;
  bound : string option;
      (** Name of the innermost file-level [let] this reference occurs
          under, e.g. [Some "execute"] — the hook for reachability rules. *)
}

type region = { rule : string; start_off : int; end_off : int }
(** A [[@psmr.allow "rule-id"]] suppression: diagnostics of [rule] whose
    offset falls within [start_off..end_off] are dropped. *)

type info = { facts : fact list; regions : region list }

val flatten : Longident.t -> string list option
(** [None] on functor-application paths ([F(X).t]). *)

val collect : ?known_members:(string list * string list) list -> ast -> info
(** Walk a parsed file.  Facts come back in source order.
    [known_members] lists the member names assumed for [open] of
    well-known module paths (default: [Stdlib], the repo's facade
    libraries and [Psmr_sim.Engine]); opening one rebinds those names.  A
    capitalised member is a module, any other a value, which a bare
    identifier then resolves to. *)
