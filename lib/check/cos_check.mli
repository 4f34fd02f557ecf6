(** COS scenario runner and oracles for the controlled scheduler: executes
    one insert/get/remove/close scenario under a chosen schedule and checks
    linearizability against the sequential COS specification, data-race
    freedom, structural invariants and deadlock-freedom. *)

open Psmr_cos

(** Readers-writers commands (the paper's application model): writes
    conflict with everything, reads only with writes. *)
module Cmd : sig
  type t = { idx : int; write : bool }

  val conflict : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

(** What to check: a registered implementation, or a custom functor (used
    for the deliberately broken variants). *)
type target =
  | Impl of Psmr_early.Registry.impl
  | Custom of string * (module Cos_intf.IMPL)

val target_name : target -> string

type scenario = {
  target : target;
  workers : int;
  writes : bool array;  (** one command per entry, in delivery order *)
  max_size : int;
  drain_before_close : bool;
      (** [true]: the inserter waits for all commands to execute before
          [close] (the production shutdown protocol); [false]: [close]
          races with the workers, exercising the close-drain path. *)
  crashes : (int * int) list;
      (** [(w, k)]: worker [w] crashes at its [k]-th reserved command
          (1-based), requeueing it instead of executing — the scheduler's
          fault-recovery path.  The picker explores every interleaving of
          the demotion with the other workers. *)
  respawn : bool;
      (** [true]: crashed workers recover and re-enter their loop; [false]:
          crash-stop, the pool shrinks. *)
  batch : int;
      (** [1]: the inserter calls [insert] once per command; [k > 1]: it
          submits [k]-command [insert_batch] calls (the last one shorter),
          so the batched admission path runs under the oracles. *)
}

val scenario :
  ?target:target ->
  ?workers:int ->
  ?commands:int ->
  ?write_pct:float ->
  ?max_size:int ->
  ?drain_before_close:bool ->
  ?crashes:(int * int) list ->
  ?respawn:bool ->
  ?batch:int ->
  workload_seed:int64 ->
  unit ->
  scenario
(** Build a scenario with a pseudo-random command sequence; the workload is
    fully determined by [workload_seed] and independent of the schedule
    exploration seed.  Defaults: lock-free target, 3 workers, 10 commands,
    40% writes, [max_size] 8, drain before close, no crashes, respawn on,
    one command per [insert]. *)

val run_schedule :
  ?max_steps:int ->
  ?trace:bool ->
  ?metrics:bool ->
  scenario ->
  pick:(last:int -> int array -> int) ->
  Check_platform.outcome
(** Run the scenario once under [pick] through {!Check_platform.run}
    (which documents the options) and apply all oracles. *)
