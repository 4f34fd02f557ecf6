(** The worker pool of every execution backend: the paper's Algorithm 1
    worker loop (fetch, execute, release), generic over the structure the
    workers fetch from — a COS ({!Scheduler.Make}), the class-map token
    queues ([Psmr_early.Dispatch]) or mailboxes ({!Early.Make}).

    Before running a fetched item a worker consults the fault hook once.
    A crash charges [P.work Fault], hands the item back with [requeue],
    and the core leaves the pool or respawns after the scheduled delay; a
    stall or a slowdown sleeps before [run], so the item's conflict
    successors wait the extra time in every backend.  With no fault plan
    armed the consult is one pointer read and charges nothing. *)

open Psmr_platform

module Make (P : Platform_intf.S) : sig
  type t

  val create :
    ?fault:(id:int -> nth:int -> Psmr_fault.Fault.worker_action) ->
    workers:int ->
    unit ->
    t
  (** The counters and the join latch for [workers > 0] workers; none is
      spawned yet.  [fault] overrides the consult (default: the
      {!Psmr_fault.Fault} facade, keyed by worker id); the model checker
      passes logical [(worker, nth-fetch)] crash points here. *)

  val spawn :
    t ->
    fetch:(int -> 'a option) ->
    requeue:(int -> 'a -> unit) ->
    run:(int -> 'a -> unit) ->
    unit
  (** Spawn workers [worker-1] .. [worker-n].  Worker [i] loops: [fetch i]
      blocks for its next item ([None]: closed and drained, the worker
      exits), then the fault consult and [run i item].  [requeue i item]
      must return a crashed worker's item so that no command is lost or
      run twice.  The structure calls {!count_executed} wherever its
      commit happens. *)

  val count_submitted : t -> int -> unit
  val count_executed : t -> unit

  val submitted : t -> int
  val executed : t -> int

  val in_flight : t -> int
  (** [submitted - executed]; advisory under concurrency. *)

  val crashed : t -> int
  (** Worker crashes so far, counting each crash of a respawned core. *)

  val drain : ?poll:float -> t -> unit
  (** Block until everything submitted has executed (polling every [poll]
      seconds, default 100 us). *)

  val shutdown : ?poll:float -> t -> close:(unit -> unit) -> unit
  (** [drain], then [close ()] (which must make every blocked [fetch]
      return [None] once the structure is empty), then wait for every
      worker to exit. *)
end
