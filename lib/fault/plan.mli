(** An armed fault schedule (see the implementation header).

    Build one with {!make}, arm it with {!install} or {!with_plan}; the
    {!Fault} facade consults the active plan at every injection point.
    Never performs engine effects. *)

type t

val make : now:(unit -> float) -> Schedule.t -> t
(** [make ~now schedule] arms nothing yet; [now] supplies virtual time
    (e.g. [Engine.now eng]) and the plan's RNG is seeded from
    [schedule.seed]. *)

val active : t option ref
(** The plan the facade consults, when any.  Prefer {!install} /
    {!clear} / {!with_plan} over writing this directly. *)

val install : t -> unit
val clear : unit -> unit

val with_plan : t -> (unit -> 'a) -> 'a
(** Run with the plan armed; the previously active plan (usually none) is
    restored afterwards, also on exceptions. *)

val schedule : t -> Schedule.t

val injected : t -> int
(** Number of decisions so far that injected a fault (everything except
    Run/Deliver). *)

(**/**)

(* Internal API for the {!Fault} facade. *)

val record : t -> unit
val take_worker_event : t -> id:int -> Schedule.worker_fault option
val slow_extra : t -> id:int -> float option
val net_decision : t -> [ `Deliver | `Drop | `Duplicate | `Delay of float ]
val take_replica_event : t -> id:int -> bool
