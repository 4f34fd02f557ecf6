(** Lock-free COS — the paper's Algorithms 5–7.

    The graph, its state chain and its blocking layer are {!Lf_graph}; this
    module keeps the paper's insert, Algorithm 7's lfInsert: one walk over
    the whole delivery list that evaluates the conflict relation against
    every live node, helps to physically unlink removed ones, and appends
    the new node after the last live node. *)

open Psmr_platform
module Probe = Psmr_obs.Probe

module Make (P : Platform_intf.S) (C : Cos_intf.COMMAND) = struct
  module G = Lf_graph.Make (P) (C)
  include G
  type t = unit graph

  let create = G.create ~ext:ignore

  (* Algorithm 7, lfInsert.  Returns the number of ready promotions (0 or 1)
     for the blocking layer to signal. *)
  let lf_insert t c ~delivered_at =
    let nn = G.node c ~delivered_at in
    (* Promotion-stall guard: once the scan installs a [dep_me] edge, a
       remover can invoke [test_ready nn].  [Ins] makes its immediate CAS
       fail, but a remover that reads the still-growing dependency list
       now and performs the CAS only after this insert completes would
       promote [nn] although dependencies recorded after its read are
       still live.  Seeding [dep_on] with [nn] itself — never [Rmd] during
       its own insert — makes every such early read conclude "not
       removable"; the sentinel is stripped below, before [Wtg]. *)
    P.Atomic.set nn.dep_on [ nn ];
    let visits = ref 0 in
    let last_live =
      G.scan t visits (fun n' ->
          P.work Conflict_check;
          if C.conflict n'.cmd c then G.add_edge ~older:n' nn)
    in
    G.append t last_live nn;
    P.Atomic.set nn.dep_on
      (List.filter (fun d -> d != nn) (P.Atomic.get nn.dep_on));
    G.publish nn ~visits:!visits

  let insert t c = G.insert t lf_insert c

  (* Batched admission: take every free [space] token the batch can use
     (at least one) in one acquisition, so a delivered batch pays about one
     semaphore round instead of one per command.  The scheduler is the
     only [space] consumer, so the advisory [value] can only grow before
     the acquire: a round blocks only when the structure is full, and then
     for one token.

     It still releases [ready] per promoted command, exactly as [insert]
     does.  [lf_insert] walks the whole graph, and workers must keep
     draining it during the walks.  Releasing [ready] only at the end of
     each round, as the indexed COS does, idles the workers while every
     walk grows: on the single-sequencer YCSB-A benchmark the peak fell
     from 346 to 189 kops and 7% of the commands failed (EXPERIMENTS.md,
     "Batches cut on their deadline"). *)
  let insert_batch t cs =
    let delivered_at = Probe.now () in
    let len = Array.length cs in
    let rec round off =
      if off < len then begin
        let n = max 1 (min (P.Semaphore.value t.space) (len - off)) in
        P.Semaphore.acquire ~n t.space;
        if not (P.Atomic.get t.closed) then
          for i = off to off + n - 1 do
            G.signal t (lf_insert t cs.(i) ~delivered_at)
          done;
        round (off + n)
      end
    in
    round 0

  let invariant ?strict t = G.invariant ?strict t
end
