(** Standalone keyed-workload experiments on the DES: a feeder at maximum
    rate, W workers, any backend from {!Psmr_early.Registry} — how the
    early-scheduling family is raced against the COS family on identical
    workloads and costs.  The [early-opt] backend is driven through the
    optimistic submit/confirm protocol with the workload's mis-speculation
    rate — with the speculation hook installed, so commands execute at
    optimistic delivery, mis-speculations cost undo + re-execution, and
    only commits count as completed; everything else through the generic
    conservative path. *)

(** Keyed commands, shared by every keyed harness: conflict iff a shared
    key with a writer.  [cost] is the execution cost in simulated CPU
    seconds. *)
module Cmd : sig
  type t = { fp : (int * bool) list; cost : float }

  val footprint : t -> (int * bool) list
  val conflict : t -> t -> bool
  val is_write : t -> bool
  val pp : Format.formatter -> t -> unit
end

val gen : Psmr_workload.Workload.Keyed.spec -> Psmr_util.Rng.t -> Cmd.t
(** The next command of the workload, costed by {!Model.exec_cost}. *)

type result = {
  kops : float;  (** completed commands per second, in thousands *)
  executed : int;
  mean_population : float;  (** mean in-flight commands during the window *)
  engine_events : int;  (** DES events the run executed *)
  wall_seconds : float;  (** wall-clock cost of the simulation loop *)
  faults_injected : int;
  crashed_workers : int;
  direct : int;  (** fast-path dispatches (early backends; 0 for COS) *)
  rendezvous : int;  (** cross-class barrier dispatches *)
  repairs : int;  (** confirmations that found a mis-speculation *)
  revoked : int;  (** commands revoked and re-enqueued by repairs *)
  dropped : int;  (** speculations never confirmed (0 in steady state) *)
  spec_execs : int;  (** speculative executions (early-opt; 0 otherwise) *)
  rollbacks : int;  (** executed commands undone by repairs *)
  redos : int;  (** re-executions of rolled-back commands *)
  redo_depth : int;  (** max executions of any single command *)
  metrics : Psmr_obs.Metrics.t option;
}

val opt_block : int
(** Optimistic pipeline depth: commands speculated ahead of final
    delivery per block. *)

val run :
  backend:Psmr_early.Registry.backend ->
  workers:int ->
  spec:Psmr_workload.Workload.Keyed.spec ->
  ?max_size:int ->
  ?batch:int ->
  (* delivery batch size on the conservative submit paths (default 1);
     ignored by the optimistic protocol, which pipelines per block *)
  ?costs:Psmr_sim.Costs.t ->
  ?duration:float ->
  ?warmup:float ->
  ?seed:int64 ->
  ?faults:Psmr_fault.Schedule.t ->
  ?metrics:bool ->
  ?probe_engine:(Psmr_sim.Engine.t -> unit) ->
  (* called with the fresh engine before any process is spawned; the hook
     tests use to install an event-order tracer *)
  unit ->
  result
