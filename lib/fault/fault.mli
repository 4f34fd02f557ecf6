(** Fault-injection facade (see the implementation header).

    One pointer read when no plan is armed; pure decisions, never an
    engine effect.  This is the only fault API lib/{cos,sched,replica,net}
    may call (checked by [psmr_lint]). *)

val enabled : unit -> bool

type net_action = Deliver | Drop | Duplicate | Delay of float

type worker_action =
  | Run
  | Crash of { respawn_after : float option }
  | Stall of float
  | Slow of float

val net : src:int -> dst:int -> net_action
(** Consulted by the network once per send (before latency is applied). *)

val worker : id:int -> worker_action
(** Consulted by the scheduler once per reserved command, before
    execution.  Worker ids are 1-based, matching the scheduler's
    [worker-<i>] names. *)

val replica : id:int -> bool
(** Whether a crash of replica [id] has come due; the event is consumed on
    a [true] answer. *)
