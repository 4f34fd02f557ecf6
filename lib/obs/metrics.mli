(** Metrics registry: counters and virtual-time latency histograms.

    A registry is built by the harness with injected virtual-time sources,
    {!enable}d for the duration of one run, and {!disable}d afterwards.
    While enabled, the probe layer ({!Probe}) records into it; while no
    registry is enabled every probe is a no-op.  Recording is plain
    mutation — never an engine effect — so enabling metrics cannot change
    what a simulation computes. *)

type counters = {
  mutable lock_acquisitions : int;
  mutable lock_contended : int;
  mutable lock_wait : float;
  mutable lock_hold : float;
  mutable cond_waits : int;
  mutable cond_signals : int;
  mutable sem_parks : int;
  mutable sem_wakes : int;
  mutable sem_wait : float;
  mutable close_tokens : int;
  mutable cas_attempts : int;
  mutable cas_successes : int;
  mutable work_visit : int;
  mutable work_conflict : int;
  mutable work_alloc : int;
  mutable work_marshal : int;
  mutable work_hash : int;
  mutable work_fault : int;
  mutable insert_ops : int;
  mutable insert_visits : int;
  mutable get_ops : int;
  mutable get_visits : int;
  mutable remove_ops : int;
  mutable remove_visits : int;
  mutable helped_removals : int;
  mutable rescans : int;
  mutable coupling_steps : int;
  mutable monitor_sections : int;
  mutable batches : int;
  mutable batched_cmds : int;
  mutable requeues : int;
  mutable fault_worker_crashes : int;
  mutable fault_worker_stalls : int;
  mutable fault_worker_slowdowns : int;
  mutable fault_net_drops : int;
  mutable fault_net_dups : int;
  mutable fault_net_delays : int;
  mutable fault_replica_crashes : int;
  mutable fault_recoveries : int;
  mutable class_direct : int;
  mutable class_barriers : int;
  mutable barrier_tokens : int;
  mutable spec_confirms : int;
  mutable spec_repairs : int;
  mutable spec_revoked : int;
  mutable spec_execs : int;
  mutable spec_rollbacks : int;
  mutable spec_undone : int;
  mutable spec_redos : int;
  mutable spec_redo_depth : int;
  mutable part_singles : int;
  mutable part_crosses : int;
  mutable part_holes : int;
}

type t

val make :
  ?now:(unit -> float) -> ?track:(unit -> int) -> ?trace:Trace.t -> unit -> t
(** [now] supplies virtual time (e.g. [Engine.now eng]); [track] supplies
    the identifier of the currently running process (e.g.
    [Engine.running_tag eng]), used as the trace thread id.  Both default
    to constants, which keeps counter-only uses trivial.  [trace] attaches
    a Chrome-trace buffer; when absent, trace probes are no-ops even while
    the registry is enabled. *)

val active : t option ref
(** The registry probes record into, when any.  Prefer {!enable} /
    {!disable} over writing this directly. *)

val enable : t -> unit
val disable : unit -> unit

val counters : t -> counters
val trace : t -> Trace.t option
val delivery_ready : t -> Psmr_util.Histogram.t
val ready_dispatch : t -> Psmr_util.Histogram.t
val dispatch_executed : t -> Psmr_util.Histogram.t

val cross_stall : t -> Psmr_util.Histogram.t
(** Cross-partition rendezvous stall: first stream sighting to emission. *)

val now : t -> unit -> float
val track : t -> unit -> int

val assoc : t -> (string * float) list
(** Flat numeric snapshot: every counter, plus [_count]/[_p50]/[_p95]/
    [_p99]/[_p999]/[_mean]/[_max] per histogram.  Deterministic order. *)

val to_json : ?cost_model:(string * float) list -> t -> Psmr_util.Json.t
(** JSON document with ["counters"] and ["latency_virtual_seconds"]
    sections, plus ["cost_model_seconds"] when [cost_model] is given.
    Counters are exact, other values keep nine significant digits.
    Deterministic: identical runs produce equal values. *)
