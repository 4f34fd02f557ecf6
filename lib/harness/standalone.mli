(** Standalone scheduler experiments (paper §7.3, Figures 2 and 3, the
    ablations and the keyed early-vs-COS grid): one feeder thread at
    maximum rate and W workers over any backend of
    {!Psmr_early.Registry} on the simulated platform, no replication
    stack.  COS backends and the early family are fed identical command
    streams and costs. *)

(** The one standalone command: conflict iff a shared key with a writer.
    [cost] is the execution cost in simulated CPU seconds.  Also the
    command of {!Part_bench} and of the A4/A6 ablations. *)
module Cmd : sig
  type t = { fp : (int * bool) list; cost : float }

  val footprint : t -> (int * bool) list
  val conflict : t -> t -> bool
  val is_write : t -> bool
  val pp : Format.formatter -> t -> unit
end

(** The command stream a run is fed. *)
type workload =
  | Paper of Psmr_workload.Workload.spec
      (** The paper's readers/writers list: every command touches one
          shared key, written with probability [write_pct]. *)
  | Keyed of Psmr_workload.Workload.Keyed.spec
      (** Explicit key footprints ({!Psmr_workload.Workload.Keyed}). *)

val gen : workload -> Psmr_util.Rng.t -> Cmd.t
(** The next command of the workload, costed by {!Model.exec_cost}: one
    [Rng.below_percent] draw per paper command, one
    [Keyed.next_footprint] per keyed command. *)

type result = {
  kops : float;  (** completed commands per second, in thousands *)
  executed : int;
  mean_population : float;  (** mean in-flight commands during the window *)
  engine_events : int;  (** DES events the run executed *)
  wall_seconds : float;  (** wall-clock cost of the simulation loop *)
  faults_injected : int;  (** fault decisions that fired during the run *)
  crashed_workers : int;  (** workers lost to injected crashes *)
  direct : int;  (** fast-path dispatches (early backends; 0 for COS) *)
  rendezvous : int;  (** cross-class barrier dispatches *)
  repairs : int;  (** confirmations that found a mis-speculation *)
  revoked : int;  (** commands revoked and re-enqueued by repairs *)
  dropped : int;  (** speculations never confirmed (0 in steady state) *)
  spec_execs : int;  (** speculative executions (early-opt; 0 otherwise) *)
  rollbacks : int;  (** executed commands undone by repairs *)
  redos : int;  (** re-executions of rolled-back commands *)
  redo_depth : int;  (** max executions of any single command *)
  metrics : Psmr_obs.Metrics.t option;  (** when run with [~metrics:true] *)
  trace : Psmr_obs.Trace.t option;  (** when run with [~trace:true] *)
}

val default_duration : float
val default_warmup : float

val run :
  backend:Psmr_early.Registry.backend ->
  workers:int ->
  workload:workload ->
  ?max_size:int ->
  ?batch:int ->
  ?costs:Psmr_sim.Costs.t ->
  ?duration:float ->
  ?warmup:float ->
  ?seed:int64 ->
  ?faults:Psmr_fault.Schedule.t ->
  ?metrics:bool ->
  ?trace:bool ->
  ?probe_engine:(Psmr_sim.Engine.t -> unit) ->
  unit ->
  result
(** Deterministic for fixed arguments (virtual time). [max_size] bounds the
    in-flight window (default 150, the paper's setting); [batch] (default
    1) feeds the backend through its batched path, [batch] commands per
    delivery; [costs] overrides the calibrated model (for sensitivity
    studies).

    COS backends and conservative early backends take the generic submit
    path.  The [early-opt] backend is driven through the optimistic
    protocol ([batch] is ignored): commands are generated in blocks,
    optimistically submitted in an order disordered by the keyed
    workload's [mis_pct] (adjacent transpositions, see
    {!Psmr_early.Spec_stream}; a paper workload never mis-speculates),
    then confirmed in final order by a second process.  Execution happens
    at optimistic delivery and a mis-speculation costs undo +
    re-execution; completions are counted at commit time, never for work
    that is later rolled back.

    [faults] (default empty) arms a deterministic fault schedule for the
    run: worker crashes/stalls/slowdowns fire at their virtual times and
    the run degrades accordingly.  The faulty run is replayable from
    ([seed], [faults]) alone; with the empty schedule the virtual-time
    history is bit-identical to a build without fault support.
    @raise Invalid_argument on a [replica-crash] event: a standalone run
    has no replica to crash.

    [metrics] (default false) activates an observability registry for the
    run and returns it in [result.metrics]; [trace] additionally collects a
    Chrome-trace buffer (one track per simulated core plus one per named
    process) in [result.trace].  Neither changes the simulation: virtual
    time, throughput and event order are identical with observability on or
    off.

    [probe_engine] (default no-op) is called with the freshly created engine
    before any process is spawned — the hook tests use to install an
    {!Psmr_sim.Engine.set_tracer} event-order tracer.  [result.engine_events]
    and [result.wall_seconds] report how many DES events the run executed and
    how long the simulation loop took in wall-clock seconds (the simulator's
    own speed; virtual-time results never depend on it). *)
