(* Lexical-scope-aware reference collection over the Parsetree.

   This is the piece the old string scanner fundamentally could not be: a
   walk of the parsed AST that threads a module environment through the
   program's actual scoping constructs — [module M = Mutex] aliases,
   [let module T = Thread in ...], [open]/[include], functor parameters,
   and signature-local module declarations — and resolves every qualified
   reference back to a canonical root before rules ever look at it.

   The output is a flat list of {!fact}s (resolved value / module / type
   references, each with its location and the innermost file-level value
   binding it occurred under) plus the [@psmr.allow]-suppression regions
   found along the way.  Rules are pure functions over facts, so adding a
   rule never means writing another traversal.

   Resolution policy (deliberately conservative in both directions):
   - A path head bound by an alias resolves through the alias, transitively
     to a global root ([module M = Mutex ... M.lock] => [Mutex.lock]).
   - A head bound to anything opaque — a [struct ... end], a functor
     parameter, a first-class module — resolves to nothing: references
     through it are the *legitimate* pattern (e.g. [P.Mutex.lock] for a
     platform functor parameter) and are never flagged.
   - An unbound head is a global root.  A leading [Stdlib.] is stripped so
     [Stdlib.Mutex.lock] and [Mutex.lock] canonicalize identically.
   - [open] of a module with known members (see {!default_members})
     rebinds those member names — which is how [module Mutex = struct .. end]
     followed by [open Stdlib] correctly re-exposes the real [Mutex].  A
     known value member is rebound too, so after [open Psmr_sim.Engine]
     (or inside [Psmr_sim.Engine.( ... )]) a bare [suspend] resolves to
     [Psmr_sim.Engine.suspend].  A later local [let] of the same name does
     not unbind it.
     [open] of an opaque module poisons unqualified heads for the rest of
     that scope (they *might* come from the opened module), so rules see
     nothing rather than false positives; it also drops the value
     rebindings, for the same reason. *)

open Parsetree
module SMap = Map.Make (String)

type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

type binding = Path of string list | Opaque

type env = {
  modules : binding SMap.t;
  values : string list SMap.t;  (* bare value name -> path an open bound *)
  opaque_open : bool;
}

type event =
  | Value of string list  (* resolved value path; [ "==" ] for bare operators *)
  | Module of string list  (* resolved module reference: alias target, open, functor argument *)
  | Type of string list  (* resolved type-constructor path *)

type fact = {
  ev : event;
  loc : Location.t;
  bound : string option;  (* innermost file-level value binding, e.g. "execute" *)
}

type region = { rule : string; start_off : int; end_off : int }

type info = { facts : fact list; regions : region list }

(* Modules whose member lists we know, keyed by canonical path, so
   [open]ing them can rebind names: a capitalised member is a module, any
   other a value.  Only names a rule could ever care about need listing.
   [Stdlib] is the load-bearing entry: opening it shadows local
   definitions with the real stdlib modules again. *)
let default_members =
  [
    ( [ "Stdlib" ],
      [
        "Mutex"; "Condition"; "Semaphore"; "Atomic"; "Domain"; "Sys"; "Random";
        "Hashtbl"; "Gc"; "Marshal"; "Obj";
      ] );
    ([ "Psmr_obs" ], [ "Probe"; "Metrics"; "Trace" ]);
    ([ "Psmr_fault" ], [ "Fault"; "Plan"; "Schedule" ]);
    ([ "Psmr_sim" ], [ "Engine" ]);
    ([ "Psmr_sim"; "Engine" ], [ "suspend" ]);
  ]

let canon = function "Stdlib" :: (_ :: _ as rest) -> rest | p -> p

let rec flatten = function
  | Longident.Lident s -> Some [ s ]
  | Longident.Ldot (l, s) -> Option.map (fun p -> p @ [ s ]) (flatten l)
  | Longident.Lapply _ -> None

let rec split_last = function
  | [] -> None
  | [ x ] -> Some ([], x)
  | x :: tl -> Option.map (fun (m, l) -> (x :: m, l)) (split_last tl)

(* Resolve a module path to its canonical root path, or [None] when it goes
   through something opaque.  With an opaque [open] in scope, unqualified
   heads are ambiguous — except [Stdlib], which nothing sane shadows. *)
let resolve env parts =
  match parts with
  | [] -> None
  | head :: rest -> (
      match SMap.find_opt head env.modules with
      | Some (Path p) -> Some (canon (p @ rest))
      | Some Opaque -> None
      | None ->
          if env.opaque_open && head <> "Stdlib" then None
          else Some (canon parts))

let allow_ids = function
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      String.split_on_char ',' s
      |> List.concat_map (String.split_on_char ' ')
      |> List.filter (fun x -> x <> "")
  | _ -> []

let collect ?(known_members = default_members) (ast : ast) : info =
  let facts = ref [] in
  let regions = ref [] in
  let env =
    ref { modules = SMap.empty; values = SMap.empty; opaque_open = false }
  in
  let depth = ref 0 in
  let bound = ref None in
  let add ev (loc : Location.t) = facts := { ev; loc; bound = !bound } :: !facts in
  let add_region rule start_off end_off =
    regions := { rule; start_off; end_off } :: !regions
  in
  let note_attrs attrs (loc : Location.t) =
    List.iter
      (fun a ->
        if a.attr_name.txt = "psmr.allow" then
          List.iter
            (fun id ->
              add_region id loc.loc_start.pos_cnum loc.loc_end.pos_cnum)
            (allow_ids a.attr_payload))
      attrs
  in
  let rec eval_module e (me : module_expr) =
    match me.pmod_desc with
    | Pmod_ident lid -> (
        match flatten lid.txt with
        | Some parts -> (
            match resolve e parts with Some p -> Path p | None -> Opaque)
        | None -> Opaque)
    | Pmod_constraint (me, _) -> eval_module e me
    | _ -> Opaque
  in
  let bind name b e =
    match name with
    | Some n -> { e with modules = SMap.add n b e.modules }
    | None -> e
  in
  let open_path e target =
    match target with
    | Some path when List.mem_assoc path known_members ->
        List.fold_left
          (fun e m ->
            let p = canon (path @ [ m ]) in
            if Char.uppercase_ascii m.[0] = m.[0] then bind (Some m) (Path p) e
            else { e with values = SMap.add m p e.values })
          e
          (List.assoc path known_members)
    | Some _ -> e
    | None -> { e with opaque_open = true; values = SMap.empty }
  in
  let apply_open e (me : module_expr) =
    match eval_module e me with
    | Path target -> open_path e (Some target)
    | Opaque -> open_path e None
  in
  let emit_module_ref lid_loc parts =
    match resolve !env parts with Some p -> add (Module p) lid_loc | None -> ()
  in
  let rec binding_name (p : pattern) =
    match p.ppat_desc with
    | Ppat_var n -> Some n.txt
    | Ppat_constraint (p, _) -> binding_name p
    | _ -> None
  in
  let expr (it : Ast_iterator.iterator) (e : expression) =
    note_attrs e.pexp_attributes e.pexp_loc;
    match e.pexp_desc with
    | Pexp_ident lid -> (
        match flatten lid.txt with
        | Some [ x ] ->
            add
              (Value (Option.value ~default:[ x ] (SMap.find_opt x !env.values)))
              lid.loc
        | Some parts -> (
            match split_last parts with
            | Some (mods, last) -> (
                match resolve !env mods with
                | Some p -> add (Value (canon (p @ [ last ]))) lid.loc
                | None -> ())
            | None -> ())
        | None -> ())
    | Pexp_letmodule (name, me, body) ->
        it.module_expr it me;
        let saved = !env in
        env := bind name.txt (eval_module saved me) saved;
        it.expr it body;
        env := saved
    | Pexp_open (od, body) ->
        it.module_expr it od.popen_expr;
        let saved = !env in
        env := apply_open saved od.popen_expr;
        it.expr it body;
        env := saved
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let module_expr (it : Ast_iterator.iterator) (me : module_expr) =
    match me.pmod_desc with
    | Pmod_ident lid -> (
        match flatten lid.txt with
        | Some parts -> emit_module_ref lid.loc parts
        | None -> Ast_iterator.default_iterator.module_expr it me)
    | Pmod_structure _ ->
        let saved = !env in
        incr depth;
        Ast_iterator.default_iterator.module_expr it me;
        decr depth;
        env := saved
    | Pmod_functor (param, body) ->
        let saved = !env in
        (match param with
        | Named (n, mty) ->
            it.module_type it mty;
            env := bind n.txt Opaque saved
        | Unit -> ());
        it.module_expr it body;
        env := saved
    | _ -> Ast_iterator.default_iterator.module_expr it me
  in
  let structure_item (it : Ast_iterator.iterator) (si : structure_item) =
    match si.pstr_desc with
    | Pstr_attribute a ->
        if a.attr_name.txt = "psmr.allow" then
          List.iter
            (fun id -> add_region id si.pstr_loc.loc_start.pos_cnum max_int)
            (allow_ids a.attr_payload)
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            note_attrs vb.pvb_attributes vb.pvb_loc;
            let saved_bound = !bound in
            (if !depth = 0 then
               match binding_name vb.pvb_pat with
               | Some n -> bound := Some n
               | None -> ());
            it.value_binding it vb;
            bound := saved_bound)
          vbs
    | Pstr_module mb ->
        note_attrs mb.pmb_attributes mb.pmb_loc;
        it.module_expr it mb.pmb_expr;
        env := bind mb.pmb_name.txt (eval_module !env mb.pmb_expr) !env
    | Pstr_recmodule mbs ->
        env :=
          List.fold_left
            (fun e mb -> bind mb.pmb_name.txt Opaque e)
            !env mbs;
        List.iter
          (fun mb ->
            note_attrs mb.pmb_attributes mb.pmb_loc;
            it.module_expr it mb.pmb_expr)
          mbs
    | Pstr_open od ->
        it.module_expr it od.popen_expr;
        env := apply_open !env od.popen_expr
    | Pstr_include incl ->
        it.module_expr it incl.pincl_mod;
        env := apply_open !env incl.pincl_mod
    | _ -> Ast_iterator.default_iterator.structure_item it si
  in
  let module_type (it : Ast_iterator.iterator) (mt : module_type) =
    match mt.pmty_desc with
    | Pmty_alias lid -> (
        match flatten lid.txt with
        | Some parts -> emit_module_ref lid.loc parts
        | None -> ())
    | Pmty_signature _ ->
        let saved = !env in
        incr depth;
        Ast_iterator.default_iterator.module_type it mt;
        decr depth;
        env := saved
    | Pmty_functor (param, body) ->
        let saved = !env in
        (match param with
        | Named (n, mty) ->
            it.module_type it mty;
            env := bind n.txt Opaque saved
        | Unit -> ());
        it.module_type it body;
        env := saved
    | _ -> Ast_iterator.default_iterator.module_type it mt
  in
  let signature_item (it : Ast_iterator.iterator) (si : signature_item) =
    match si.psig_desc with
    | Psig_attribute a ->
        if a.attr_name.txt = "psmr.allow" then
          List.iter
            (fun id -> add_region id si.psig_loc.loc_start.pos_cnum max_int)
            (allow_ids a.attr_payload)
    | Psig_module md ->
        it.module_type it md.pmd_type;
        let b =
          match md.pmd_type.pmty_desc with
          | Pmty_alias lid -> (
              match flatten lid.txt with
              | Some parts -> (
                  match resolve !env parts with
                  | Some p -> Path p
                  | None -> Opaque)
              | None -> Opaque)
          | _ -> Opaque
        in
        env := bind md.pmd_name.txt b !env
    | Psig_recmodule mds ->
        env :=
          List.fold_left (fun e md -> bind md.pmd_name.txt Opaque e) !env mds;
        List.iter (fun md -> it.module_type it md.pmd_type) mds
    | Psig_open od -> (
        match flatten od.popen_expr.txt with
        | Some parts ->
            emit_module_ref od.popen_expr.loc parts;
            env := open_path !env (resolve !env parts)
        | None -> ())
    | _ -> Ast_iterator.default_iterator.signature_item it si
  in
  let typ (it : Ast_iterator.iterator) (t : core_type) =
    (match t.ptyp_desc with
    | Ptyp_constr (lid, _) | Ptyp_class (lid, _) -> (
        match flatten lid.txt with
        | Some (_ :: _ :: _ as parts) -> (
            match split_last parts with
            | Some (mods, last) -> (
                match resolve !env mods with
                | Some p -> add (Type (p @ [ last ])) lid.loc
                | None -> ())
            | None -> ())
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.typ it t
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr;
      module_expr;
      structure_item;
      module_type;
      signature_item;
      typ;
    }
  in
  (match ast with
  | Impl str -> it.structure it str
  | Intf sg -> it.signature it sg);
  { facts = List.rev !facts; regions = !regions }
