(** Partitioned-merge scenario runner for the controlled scheduler:
    [replicas] independent {!Psmr_broadcast.Pmerge} instances consume one
    shared set of per-partition sequencer streams, with a decision point
    before every push so the explorer drives each replica through a
    different arrival interleaving within a single schedule.

    Oracles: per-partition projection agreement across replicas (the
    determinism property partitioned SMR rests on), exactly-once emission,
    drained merges (no rendezvous deadlock), and tie-break count
    agreement.  The [no_barrier] scenario plants the rendezvous-skipping
    bug the projection oracle must catch.  Runs go through
    {!Check_platform.run}, so outcomes are {!Check_platform.outcome}s and
    every [Explore] driver takes [~run:(run_schedule sc)]. *)

type scenario = {
  partitions : int;
  replicas : int;  (** independent merge instances compared *)
  commands : int;
  touched : int array array;
      (** per command: ascending touched partitions (1 = single) *)
  streams : int list array;
      (** per partition: command indices in sequencer order — identical at
          every replica, as the per-partition abcast guarantees; a cross
          index recurs where the stream carries a repeated leg *)
  no_barrier : bool;
}

val scenario :
  ?partitions:int ->
  ?replicas:int ->
  ?commands:int ->
  ?cross_pct:float ->
  ?no_barrier:bool ->
  workload_seed:int64 ->
  unit ->
  scenario
(** Build a scenario with a pseudo-random partitioned workload: each
    command is a single on a random home partition or, with probability
    [cross_pct]%, a cross over a random 2..[partitions] subset;
    per-partition sequencer orders are independently shuffled so
    inconsistent cross orders (the tie-break path) arise naturally.  With
    probability 30% per cross command and touched stream, that stream
    also carries a repeat copy at a random later position (a client
    resend's leg), which the merge must drop.  Fully determined by
    [workload_seed].  Defaults: 2 partitions, 2 replicas, 10 commands, 30%
    cross, sound merge. *)

val run_schedule :
  ?max_steps:int ->
  ?trace:bool ->
  ?metrics:bool ->
  scenario ->
  pick:(last:int -> int array -> int) ->
  Check_platform.outcome
(** Run the scenario once under [pick] through {!Check_platform.run}
    (which documents the options and the outcome) and apply all oracles. *)
