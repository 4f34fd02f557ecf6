(** The generic parallel-SMR execution runtime (the paper's Algorithm 1):
    a single scheduler thread inserting delivered commands into a COS and a
    pool of worker threads looping over get/execute/remove.

    Platform- and algorithm-agnostic: instantiate with any
    {!Psmr_platform.Platform_intf.S} and any {!Psmr_cos.Cos_intf.S}. *)

open Psmr_platform

module Make (P : Platform_intf.S) (Cos : Psmr_cos.Cos_intf.S) :
  Sched_intf.BACKEND with type cmd = Cos.cmd
(** The COS-based backend, as a {!Sched_intf.BACKEND}:

    [start] creates the COS (bounded by [max_size], default 150) and
    spawns [workers] worker threads looping over get/execute/remove.
    [execute] must tolerate concurrent invocation on non-conflicting
    commands; conflicting commands execute in delivery order because the
    COS only promotes a command once its dependencies were removed.

    When a fault plan is armed ([Psmr_fault]), or a [fault] override is
    passed to [start], workers consult it before each execution: a
    crashed worker requeues its reserved command (no command is lost or
    run twice) and leaves the pool — permanently, or until its scheduled
    respawn; stalled/slowed workers sleep the configured amount before
    the execution.  With no plan armed the
    consultation is a single pointer read and the run is bit-identical to
    one without fault support. *)
