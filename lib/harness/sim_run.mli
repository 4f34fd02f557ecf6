(** One simulated run: the setup every DES harness shares — engine and
    platform, the fault plan, the observability registry, a simulated CPU
    bank of {!Model.cores} cores, the measurement window (warmup gate,
    completion counter, population probe) and the wall-timed engine run.

    Process ids are the tags that break same-time event ties, so spawn
    order is part of a harness's behaviour: spawn the target's processes
    first, then {!population_probe} where the harness samples one; {!run}
    spawns the warmup gate last. *)

type t

val with_sim :
  ?costs:Psmr_sim.Costs.t ->
  ?faults:Psmr_fault.Schedule.t ->
  ?metrics:bool ->
  ?trace:bool ->
  ?probe_engine:(Psmr_sim.Engine.t -> unit) ->
  (t -> 'a) ->
  'a
(** [with_sim f] creates the engine, calls [probe_engine] on it before
    anything else (the hook tests use to install an event-order tracer),
    packages it with [costs] (default {!Model.sim_costs}) as a platform and
    runs [f].  A non-empty [faults] schedule is installed as the global
    fault plan for the extent of [f]; an empty one installs nothing, so
    fault-free runs stay safe to fan out over domains.  [metrics] (or
    [trace], which adds a Chrome-trace buffer) creates an observability
    registry, enabled only while {!run} runs the engine. *)

val engine : t -> Psmr_sim.Engine.t
val platform : t -> (module Psmr_platform.Platform_intf.S)
val metrics : t -> Psmr_obs.Metrics.t option
val trace : t -> Psmr_obs.Trace.t option

val faults_injected : t -> int
(** Fault decisions that fired so far. *)

val events : t -> int
(** DES events executed so far. *)

val exec : t -> float -> unit
(** Occupy one core of the run's CPU bank for that many virtual seconds. *)

val measuring : t -> bool
(** Whether the warmup gate has opened. *)

val tick : t -> unit
(** Count one completion, if measuring. *)

val completed : t -> int

val kops : t -> float
(** Completions per second of the measurement window, in thousands; read
    after {!run}. *)

val forever : t -> name:string -> (unit -> unit) -> unit
(** Spawn a process that calls the body in a loop. *)

val population_probe : t -> (unit -> int) -> unit -> float
(** Spawn the 1 ms probe that samples [in_flight] while measuring; returns
    a reader of the sampled mean. *)

val run :
  ?at_warmup:(unit -> unit) -> t -> warmup:float -> duration:float -> float
(** Spawn the warmup gate (it opens the window, then calls [at_warmup]),
    run the engine to [warmup +. duration] with the registry enabled, name
    the trace tracks, and return the loop's wall-clock seconds. *)
