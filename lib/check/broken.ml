(** Deliberately broken COS variants, used to validate the checker itself:
    a model checker that has never caught a planted bug proves nothing.
    Each variant is the shared lock-free graph ([Psmr_cos.Lf_graph]) with
    the pseudocode's insert and at most one realistic mutation — each is a
    bug the correct implementation documents having to avoid (see
    [Psmr_cos.Lf_graph.node] and [Psmr_cos.Lockfree.lf_insert]).

    - {!Wtg_start}: nodes enter the list in the [Wtg] state instead of an
      explicit inserting state, exactly as in the paper's pseudocode.  A
      remover of an already-recorded dependency can then promote a node
      whose dependency set is still being built, releasing a command while
      an older conflicting command is still in the structure — caught by
      the conflict-order oracle.
    - {!Lost_signal}: [remove] promotes freed dependents but forgets to
      release the ready semaphore for them, so the promoted commands are
      ready with no token to claim them — caught as a deadlock.
    - {!No_sentinel}: no mutation at all — the pseudocode's insert itself
      {e is} the pre-hardening lock-free algorithm, without the
      self-sentinel seeded into [dep_on] during insert (see the long
      comment in [Psmr_cos.Lockfree.lf_insert]).  A remover can read the
      still-growing dependency list, stall, and perform its promoting CAS
      only after the insert has published later live dependencies and
      opened the node —
      caught by the conflict-order oracle.  Pinned-seed replays of this
      variant are the regression test for the self-sentinel fix. *)

open Psmr_platform
open Psmr_cos

module type CONFIG = sig
  val mutation : [ `None | `Wtg_start | `Lost_signal ]
end

module Make_broken (Cfg : CONFIG) (P : Platform_intf.S) (C : Cos_intf.COMMAND) =
struct
  module G = Lf_graph.Make (P) (C)
  include G
  type t = unit graph

  let create = G.create ~ext:ignore

  (* The pseudocode's lfInsert: no self-sentinel in [dep_on]. *)
  let lf_insert t c ~delivered_at =
    (* THE BUG (Wtg_start): the paper's pseudocode start state.  The node
       is promotable before its dependency set is complete. *)
    let st = if Cfg.mutation = `Wtg_start then Wtg else Ins in
    let nn = G.node ~st c ~delivered_at in
    let last_live =
      G.scan t (ref 0) (fun n' ->
          P.work Conflict_check;
          if C.conflict n'.cmd c then G.add_edge ~older:n' nn)
    in
    G.append t last_live nn;
    if Cfg.mutation <> `Wtg_start then P.Atomic.set nn.st Wtg;
    G.test_ready nn

  let insert t c = G.insert t lf_insert c
  let insert_batch t cs = Array.iter (insert t) cs

  let remove t n =
    let promoted, _ = G.lf_remove n in
    ignore (P.Atomic.fetch_and_add t.size (-1) : int);
    (* THE BUG (Lost_signal): the freed dependents are Rdy but nobody is
       told — their tokens are never released. *)
    if Cfg.mutation <> `Lost_signal then G.signal t promoted;
    P.Semaphore.release t.space

  (* No structural self-checks: the planted bugs must be caught by the
     checker's external oracles, not confessed by the data structure. *)
  let invariant ?strict:_ _ = []
end

module Wtg_start : Cos_intf.IMPL = Make_broken (struct
  let mutation = `Wtg_start
end)

module Lost_signal : Cos_intf.IMPL = Make_broken (struct
  let mutation = `Lost_signal
end)

module No_sentinel : Cos_intf.IMPL = Make_broken (struct
  let mutation = `None
end)
