(** Early-scheduling scenario runner and oracles for the controlled
    scheduler: executes one class-map-dispatch scenario (conservative,
    optimistic, or optimistic with execution-time speculation over a
    keyed register file) under a chosen schedule and checks final-order
    conflict ordering, rollback consistency against a sequential replay,
    exactly-once commit, class-barrier deadlock-freedom, data-race
    freedom and the dispatcher's structural invariants.  Runs go through
    {!Check_platform.run}, so outcomes are {!Check_platform.outcome}s and
    every [Explore] driver takes [~run:(run_schedule sc)]. *)

(** Keyed-footprint commands: an index in final delivery order plus the
    [(key, is_write)] footprint; conflict iff a shared key with a
    writer. *)
module Cmd : sig
  type t = { idx : int; fp : (int * bool) list }

  val footprint : t -> (int * bool) list
  val conflict : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

type scenario = {
  workers : int;
  classes : int option;
      (** class-map size; [None] = one class per worker *)
  footprints : (int * bool) list array;
      (** one command per entry, in final delivery order *)
  max_size : int;
  optimistic : bool;
      (** [true]: feed through [submit_optimistic] in an order disordered
          by [mis_pct], then confirm in final order; [false]: conservative
          final-order [submit] *)
  mis_pct : float;
  opt_seed : int64;  (** seeds the optimistic disorder *)
  repair : bool;
      (** [false] disables the mis-speculation repair — the planted bug
          the conflict-order oracle must catch under optimism *)
  write_gate : bool;
      (** [false] lets writes run past still-executing shared reads — the
          planted bug the conflict-order and rollback-consistency oracles
          must catch *)
  read_gate : bool;
      (** [false] makes a shared read ready before the writes ahead of it
          have completed — the planted bug the same oracles must catch *)
  speculate : bool;
      (** [true]: install the dispatcher's undo-capable execution hook, so
          pending single-queue tokens execute before their confirmation
          and repairs roll the register file back *)
  undo : bool;
      (** [false] with [speculate]: rollbacks skip the register restore —
          the planted bug the rollback-consistency oracle must catch *)
  drain_before_close : bool;
  crashes : (int * int) list;
      (** [(w, k)]: worker [w] crashes at its [k]-th fetch (1-based),
          requeueing the token at its queue's front, or the ready read at
          the ready queue's, for any worker to take.  With [respawn] off
          this can strand a partially-arrived barrier — the class-barrier
          deadlock oracle's target. *)
  respawn : bool;
      (** [true]: the crashed worker re-enters its loop and drains what it
          requeued; [false]: crash-stop. *)
}

val scenario :
  ?workers:int ->
  ?classes:int ->
  ?commands:int ->
  ?keys:int ->
  ?write_pct:float ->
  ?cross_pct:float ->
  ?optimistic:bool ->
  ?mis_pct:float ->
  ?repair:bool ->
  ?write_gate:bool ->
  ?read_gate:bool ->
  ?speculate:bool ->
  ?undo:bool ->
  ?max_size:int ->
  ?drain_before_close:bool ->
  ?crashes:(int * int) list ->
  ?respawn:bool ->
  workload_seed:int64 ->
  unit ->
  scenario
(** Build a scenario with a pseudo-random keyed workload
    ([Psmr_workload.Workload.Keyed]); fully determined by [workload_seed]
    and independent of the schedule-exploration seed.  Defaults: 3
    workers, per-worker classes, 10 commands over 4 keys, 40% writes, 20%
    cross-key, conservative feed, repair and both gates on, no speculation
    (dispatch-time optimism only), undo on, [max_size] 8, drain before
    close, no crashes, respawn on. *)

val run_schedule :
  ?max_steps:int ->
  ?trace:bool ->
  ?metrics:bool ->
  scenario ->
  pick:(last:int -> int array -> int) ->
  Check_platform.outcome
(** Run the scenario once under [pick] through {!Check_platform.run}
    (which documents the options and the outcome) and apply all oracles. *)
