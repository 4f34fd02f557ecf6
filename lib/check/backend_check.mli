(** Execution-backend scenario runner and oracles for the controlled
    scheduler: one concurrent program over either backend a replica runs —
    the COS runtime ({!Psmr_sched.Scheduler}, the paper's Algorithm 1,
    over a registered or planted-bug COS) or the class-map dispatcher
    ([Psmr_early.Dispatch], conservative, optimistic, or optimistic with
    execution-time speculation) — executed under a chosen schedule and
    checked for conflict order, rollback consistency against a sequential
    replay, exactly-once commit, deadlock-freedom (class barriers
    included), data-race freedom, the structure's invariants and, for COS
    targets, the COS-level specification.  Runs go through
    {!Check_platform.run}, so outcomes are {!Check_platform.outcome}s and
    every [Explore] driver takes [~run:(run_schedule sc)]. *)

(** Keyed-footprint commands: an index in final delivery order plus the
    [(key, is_write)] footprint; conflict iff a shared key with a
    writer.  COS scenarios use one key, the paper's readers-writers
    model. *)
module Cmd : sig
  type t = { idx : int; fp : (int * bool) list }

  val footprint : t -> (int * bool) list
  val conflict : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

(** The COS under the runtime: a registered implementation, or a custom
    functor (the deliberately broken variants). *)
type cos =
  | Impl of Psmr_early.Registry.impl
  | Custom of string * (module Psmr_cos.Cos_intf.IMPL)

(** A class-map dispatcher configuration.  The flags other than
    [classes], [optimistic] and [speculate] plant bugs the oracles must
    catch. *)
type dispatcher = {
  name : string;
  classes : int option;  (** class-map size; [None] = one per worker *)
  optimistic : bool;
      (** [true]: feed through [submit_optimistic] in an order disordered
          by the scenario's [mis_pct], then confirm in final order;
          [false]: final-order [submit] / [submit_batch] *)
  repair : bool;
      (** [false] disables the mis-speculation repair — caught by the
          conflict-order oracle under optimism *)
  write_gate : bool;
      (** [false] lets writes run past still-executing shared reads —
          caught by the conflict-order and rollback-consistency oracles *)
  read_gate : bool;
      (** [false] makes a shared read ready before the writes ahead of it
          have completed — caught by the same oracles *)
  speculate : bool;
      (** [true]: install the dispatcher's undo-capable execution hook, so
          pending single-queue tokens execute before their confirmation
          and repairs roll the register file back *)
  undo : bool;
      (** [false] with [speculate]: rollbacks skip the register restore —
          caught by the rollback-consistency oracle *)
}

type target = Cos of cos | Dispatcher of dispatcher

val target_name : target -> string

val dispatcher :
  ?name:string ->
  ?classes:int ->
  ?optimistic:bool ->
  ?repair:bool ->
  ?write_gate:bool ->
  ?read_gate:bool ->
  ?speculate:bool ->
  ?undo:bool ->
  unit ->
  target
(** A dispatcher target.  Defaults: named ["early"], one class per
    worker, conservative feed, repair and both gates on, no speculation,
    undo on. *)

type scenario = {
  target : target;
  workers : int;
  footprints : (int * bool) list array;
      (** one command per entry, in final delivery order *)
  max_size : int;
  mis_pct : float;
  opt_seed : int64;  (** seeds the optimistic disorder *)
  drain_before_close : bool;
      (** [true]: the parallelizer waits for every command to commit
          before [close] (the production shutdown protocol); [false]:
          [close] races with the workers *)
  crashes : (int * int) list;
      (** [(w, k)]: worker [w] crashes at its [k]-th fetch (1-based),
          through the pool's fault hook: the backend requeues the item —
          a COS reservation back to ready, a token to its queue's front, a
          ready read to the ready queue's.  With [respawn] off this can
          strand a partially-arrived barrier — the class-barrier deadlock
          oracle's target. *)
  respawn : bool;
      (** [true]: the crashed core re-enters its loop; [false]:
          crash-stop, the pool shrinks *)
  batch : int;
      (** [1]: one [submit] per command; [k > 1]: [k]-command
          [submit_batch] calls (the last one shorter) — [insert_batch] on
          a COS, the batched class-map append on the dispatcher *)
}

val scenario :
  ?target:target ->
  ?workers:int ->
  ?commands:int ->
  ?keys:int ->
  ?write_pct:float ->
  ?cross_pct:float ->
  ?mis_pct:float ->
  ?max_size:int ->
  ?drain_before_close:bool ->
  ?crashes:(int * int) list ->
  ?respawn:bool ->
  ?batch:int ->
  workload_seed:int64 ->
  unit ->
  scenario
(** Build a scenario with a pseudo-random workload, fully determined by
    [workload_seed] and independent of the schedule-exploration seed: on
    a COS target [write_pct] writes of one shared variable, on a
    dispatcher target the keyed workload
    ([Psmr_workload.Workload.Keyed], over [keys] keys with [cross_pct]
    two-key commands).  Defaults: lock-free COS, 3 workers, 10 commands
    over 4 keys, 40% writes, 20% cross-key, 30% mis-speculation,
    [max_size] 8, drain before close, no crashes, respawn on, batch 1.
    @raise Invalid_argument on an optimistic target with [batch > 1]. *)

val run_schedule :
  ?max_steps:int ->
  ?trace:bool ->
  ?metrics:bool ->
  scenario ->
  pick:(last:int -> int array -> int) ->
  Check_platform.outcome
(** Run the scenario once under [pick] through {!Check_platform.run}
    (which documents the options and the outcome) and apply all oracles. *)
