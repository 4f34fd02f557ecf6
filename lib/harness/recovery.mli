(** Single-replica crash/recovery harness: periodic checkpoints, log
    replay after a crash, and the outcome record the recovery-equivalence
    tests compare (see the implementation header). *)

module Make (Service : Psmr_app.Service_intf.S) : sig
  type outcome = {
    completed : bool;
        (** The whole log executed (false only when the plan ends with an
            unrecovered crash). *)
    final_state : string;  (** Service snapshot after the last command. *)
    replies : string array;
        (** Rendered response per log position; [""] where never executed. *)
    crashes : int;
    recoveries : int;
    checkpoints : int;
    replayed : int;  (** Commands redelivered by recoveries. *)
    end_time : float;  (** Virtual time when the log finished draining. *)
  }

  val run :
    backend:Psmr_early.Registry.backend ->
    workers:int ->
    state:(unit -> Service.t) ->
    log:Service.command array ->
    ?checkpoint_every:int ->
    ?faults:Psmr_fault.Schedule.t ->
    ?costs:Psmr_sim.Costs.t ->
    ?exec_cost:(Service.command -> float) ->
    unit ->
    outcome
  (** Execute [log] on a fresh [state ()] through [backend] with
      [workers] workers on the simulated platform, checkpointing every
      [checkpoint_every] commands, under the [faults] schedule (replica
      id 0).  With [faults] empty the run is fault-free and deterministic;
      with the same schedule and seeds, the faulty run is too. *)
end
