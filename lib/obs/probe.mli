(** Observability hooks over the declared metric table ({!Table}), which
    this module owns: each hook records into the counters and histograms
    named for it, [<layer>.<name>].  Every function is a no-op while no
    {!Metrics} registry is enabled, and never performs an engine effect, so
    instrumentation cannot perturb a simulation.

    This is the only observability API the runtime layers may call
    (checked by [psmr_lint]). *)

val enabled : unit -> bool
(** A registry is currently enabled.  Use to guard timestamp capture. *)

val tracing : unit -> bool
(** A registry with an attached trace buffer is enabled. *)

val now : unit -> float
(** Virtual time from the active registry; [0.0] when disabled. *)

val track : unit -> int
(** Current process identifier from the active registry; [0] when
    disabled. *)

val core_pid : int
(** Trace process id under which simulated-core tracks are grouped. *)

val proc_pid : int
(** Trace process id under which engine-process tracks are grouped. *)

(** {1 Blocking primitives}

    Recorded under [sync.*] by the simulated and the model-checking
    platforms. *)

val mutex_acquired : contended:bool -> waited:float -> unit
val mutex_released : since:float -> unit
(** [since] is the virtual time the mutex was acquired at; the hold time
    is accumulated and, when tracing, emitted as a ["cs"] slice on the
    holder's track. *)

val cond_wait : unit -> unit
val cond_signal : unit -> unit
val sem_park : waited:float -> unit
val sem_wake : unit -> unit

(** {1 Nonblocking layer and modeled work}

    Recorded under [platform.*]. *)

val cas : success:bool -> unit
val work : [ `Visit | `Conflict | `Alloc | `Marshal | `Hash | `Fault ] -> unit

(** {1 COS operations}

    Recorded under [cos.*], except {!batch} under [sched.*]. *)

val insert_done : visits:int -> unit
val get_done : visits:int -> unit
val remove_done : visits:int -> unit
val helped_removal : unit -> unit
val rescan : unit -> unit
val coupling_step : unit -> unit
val monitor_section : unit -> unit
val close_tokens : int -> unit
val batch : int -> unit

val requeue : unit -> unit
(** One orphaned command demoted back to ready (COS [requeue]). *)

(** {1 Fault injection}

    Recorded under [fault.*]. *)

val fault :
  [ `Worker_crash
  | `Worker_stall
  | `Worker_slow
  | `Net_drop
  | `Net_dup
  | `Net_delay
  | `Replica_crash ] ->
  unit
(** One injected fault firing.  Recorded by the [Psmr_fault] facade when an
    armed plan makes a non-[Run]/non-[Deliver] decision. *)

(** {1 Early scheduling}

    Recorded under [early.*] by the class-map dispatcher ([Psmr_early]);
    untouched by COS-backed runs. *)

val class_direct : unit -> unit
(** One command dispatched on the single-queue fast path (no barrier). *)

val class_barrier : tokens:int -> unit
(** One cross-class command: a write dispatched through a rendezvous over
    [tokens] worker queues, or a read ([tokens = 0]) through the ready
    queue. *)

val spec_confirm : unit -> unit
(** One optimistically delivered command confirmed in its speculated
    position. *)

val spec_repair : revoked:int -> unit
(** One confirmation that detected a mis-speculation; [revoked] commands
    were pulled out of their queues and re-enqueued behind it. *)

val spec_exec : unit -> unit
(** One command executed speculatively (before its order was confirmed). *)

val spec_rollback : undone:int -> unit
(** One rollback event: a confirmation arrived below outstanding
    speculations, and [undone] already-executed commands had their effects
    reverted via the service undo log. *)

val spec_redo : depth:int -> unit
(** One re-execution of a previously rolled-back command; [depth] is the
    total number of times that command has now been executed (2 for the
    first redo).  The registry keeps the maximum observed depth. *)

(** {1 Sequencer cuts}

    Recorded under [abcast.*] by the atomic broadcast leader
    ([Psmr_broadcast.Abcast]) as it cuts a batch. *)

val abcast_batch : int -> unit
(** One batch of [n] commands cut. *)

val abcast_cut_wait : float -> unit
(** One command's wait at the leader: enqueue to the cut of its batch. *)

(** {1 Partitioned ordering}

    Recorded under [part.*] by the cross-partition merge
    ([Psmr_broadcast.Pmerge]); untouched by single-sequencer runs. *)

val part_single : unit -> unit
(** One single-partition command emitted at its home stream's head. *)

val part_cross : unit -> unit
(** One cross-partition command emitted after its rendezvous (or a cycle
    tie-break). *)

val part_hole : unit -> unit
(** One per-partition sequence hole created by a cycle tie-break. *)

val part_stall : float -> unit
(** Cross-partition stall for one emitted command: first stream sighting
    to emission, recorded in the cross-stall histogram. *)

(** {1 Per-command latency pipeline} *)

val ready_latency : float -> unit
(** Delivery (insert call) to promotion (all dependencies removed),
    under [cos.*]. *)

val dispatch_latency : float -> unit
(** Promotion to a worker reserving the command in [get], under
    [sched.*]. *)

val exec_latency : float -> unit
(** Reservation to execution completed, under [sched.*]. *)

(** {1 Trace slices} *)

val exec : core:int -> ts:float -> dur:float -> unit
(** Command execution occupying simulated core [core]. *)

val span : name:string -> ts:float -> dur:float -> unit
(** Generic slice on the current process's track. *)

(** {1 Benchmark view}

    The counters and histograms [benchmark/layers.ml] reads as record
    fields, re-exported by {!Metrics}.  Due for deletion in the next change
    to the benchmark, which reads them by name ({!Table.value}) instead. *)

module View : sig
  type counters = {
    work_marshal : int;
    lock_wait : float;
    cas_attempts : int;
    cas_successes : int;
    insert_ops : int;
    insert_visits : int;
    class_direct : int;
    class_barriers : int;
    spec_execs : int;
    spec_undone : int;
  }

  val counters : Table.t -> counters
  val delivery_ready : Table.t -> Psmr_util.Histogram.t
  val ready_dispatch : Table.t -> Psmr_util.Histogram.t
  val cross_stall : Table.t -> Psmr_util.Histogram.t
end
