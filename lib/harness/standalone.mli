(** Standalone data-structure experiments (paper §7.3, Figures 2 and 3):
    one inserter thread at maximum rate and W workers over a COS on the
    simulated platform, no replication stack. *)

(** Readers/writers commands ([true] writes): a read conflicts with a
    write, a write with everything; the footprint is one shared variable.
    Also the command type of the A4 early-scheduling ablation. *)
module Rw : sig
  type t = bool

  val conflict : t -> t -> bool
  val footprint : t -> (int * bool) list
  val is_write : t -> bool
  val pp : Format.formatter -> t -> unit
end

type result = {
  kops : float;  (** completed commands per second, in thousands *)
  mean_population : float;  (** mean number of commands in the graph *)
  executed : int;
  engine_events : int;  (** DES events the run executed *)
  wall_seconds : float;  (** wall-clock cost of the simulation loop *)
  faults_injected : int;  (** fault decisions that fired during the run *)
  crashed_workers : int;  (** workers lost to injected crashes *)
  metrics : Psmr_obs.Metrics.t option;  (** when run with [~metrics:true] *)
  trace : Psmr_obs.Trace.t option;  (** when run with [~trace:true] *)
}

val default_duration : float
val default_warmup : float

val run :
  impl:Psmr_cos.Registry.impl ->
  workers:int ->
  spec:Psmr_workload.Workload.spec ->
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
    dependency graph (default 150, the paper's setting); [batch] (default 1)
    feeds the inserter through the COS's batched path, [batch] commands per
    delivery; [costs] overrides the calibrated model (for sensitivity
    studies).

    [faults] (default empty) arms a deterministic fault schedule for the
    run: worker crashes/stalls/slowdowns fire at their virtual times and
    the run degrades accordingly.  The faulty run is replayable from
    ([seed], [faults]) alone; with the empty schedule the virtual-time
    history is bit-identical to a build without fault support.

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
