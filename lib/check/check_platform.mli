(** The checking platform: [Platform_intf.S] over the DES engine with a
    controlled scheduler.

    The primitives are [Psmr_sim.Sim_sync.Make]'s, the timed simulator's
    own, under hooks that make every mutex/condition/semaphore/atomic
    operation and [yield] a decision point at which the engine's picker
    ([Engine.set_picker]) chooses the next process to run; virtual time
    never advances, so the picker sees every runnable process at every
    step.  The platform also maintains per-process vector clocks across all
    synchronization edges and reports unordered plain [Atomic.set] stores
    as data races.

    Usage: {!run} one schedule of a scenario; it creates the engine and
    context, [make]s the platform, lets the scenario spawn its processes,
    installs the picker and runs the engine.  [Backend_check] and
    [Partition_check] are the scenarios. *)

module Engine = Psmr_sim.Engine

type race = {
  op : string;  (** the racing write, e.g. ["Atomic.set"] *)
  cell : string;  (** stable per-run cell name, e.g. ["atomic#12"] *)
  writer : int;  (** process id of the racing writer *)
  prev_writer : int;  (** process id of the unordered previous writer *)
}

type t
(** The instrumentation context backing one [make]d platform. *)

val create : Engine.t -> t

val make : t -> (module Psmr_platform.Platform_intf.S)
(** The platform (named ["check"]).  All state lives in the context, so a
    fresh engine + context + platform triple is needed per schedule. *)

val ticket : t -> int
(** Next value of the logical event counter (monotone within a run); used
    by oracles to order observed operations. *)

val ops : t -> int
(** Decision points taken so far. *)

val races : t -> race list
(** Races recorded so far, in detection order. *)

val with_ghost : t -> (unit -> 'a) -> 'a
(** Run a read-only oracle: while [f] runs, platform reads neither yield
    nor touch the happens-before state, so shared state can be snapshotted
    between two scheduled operations.  Blocking primitives raise. *)

val oplog : t -> (int * string) list
(** The recorded operation log, in execution order: with tracing on,
    every decision point appends [(pid, op)] — used by replay to print
    the failing schedule. *)

(** {2 Running one schedule} *)

type outcome = {
  completed : bool;
      (** not truncated, and the scenario's post-run oracles report every
          process finished *)
  violations : string list;  (** what the oracles found ([[]] = clean) *)
  decisions : int;
  truncated : bool;  (** cut off at [max_steps] decision points *)
  choices : int array;  (** chosen process id at every decision point *)
  trace_hash : int64;  (** FNV-1a hash of [choices]: schedule identity *)
  oplog : (int * string) list;  (** per-step (pid, op) log when [trace] *)
  metrics : (string * float) list;
      (** flat [Psmr_obs.Metrics.assoc] snapshot when [metrics]; latency
          figures are in decision points (virtual time never advances under
          the checker) *)
}

val default_max_steps : int
(** The decision-point bound {!run} applies when [max_steps] is omitted. *)

val run :
  ?max_steps:int ->
  ?trace:bool ->
  ?metrics:bool ->
  pick:(last:int -> int array -> int) ->
  (t ->
  (module Psmr_platform.Platform_intf.S) ->
  viol:(string -> unit) ->
  unit ->
  bool) ->
  outcome
(** [run ~pick setup] runs one schedule on a fresh engine + context +
    platform.  [setup ctx (module P) ~viol] spawns the scenario's
    processes through [P], reports violations through [viol], and returns
    its post-run oracles: called once after a run that was not truncated,
    they report further violations and return whether every process
    finished.  [pick] (see [Strategy]) chooses at every decision point; an
    out-of-range index picks the first runnable process.  [max_steps]
    (default {!default_max_steps}) bounds the decision points so that
    strategies which starve a polling loop cannot hang the run.  An exception escaping a
    process is a violation; races are appended after the oracles'
    reports.  [metrics] (default off) enables an observability registry
    for the run and returns its snapshot in {!outcome.metrics}. *)
