(** The shared interface every execution backend presents to the replica.

    A {e backend} is the piece that sits between "the ordering layer
    delivered this command" and "a simulated core executed it": the
    COS-based runtime ({!Scheduler.Make}, the paper's Algorithm 1) is one
    backend; the early-scheduling class-map dispatcher
    ([Psmr_early.Dispatch]) is another.  Keeping them behind one module
    type lets the replica, the DES harnesses and the benchmark CLIs race
    scheduling {e families} against each other without knowing which one
    is underneath.

    Contract common to all backends:
    - [submit]/[submit_batch] are called by a single thread (the
      parallelizer), in delivery order, and may block for backpressure
      (the backend bounds its in-flight window by [max_size]).
    - [execute] runs on worker threads and must tolerate concurrent
      invocation on non-conflicting commands; the backend guarantees that
      conflicting commands execute in delivery order.
    - Workers consult the {!Psmr_fault.Fault} facade; a crashed worker
      loses no command (its reservation is returned to the structure) and
      the pool shrinks or respawns per the armed plan.
    - [shutdown] may only be called after the owner stopped submitting;
      it drains, closes the structure and joins the workers. *)

module type BACKEND = sig
  type cmd
  (** The command type executed by this backend. *)

  type t

  val name : string
  (** Registry-style identifier (e.g. ["cos:lockfree"], ["early"]). *)

  val start :
    ?max_size:int ->
    workers:int ->
    execute:(cmd -> unit) ->
    unit ->
    t
  (** Spawn [workers] worker threads running [execute] on each command
      they reserve.  [max_size] bounds the in-flight window (default
      {!Psmr_cos.Cos_intf.default_max_size}). *)

  val submit : t -> cmd -> unit
  (** Hand over the next command in delivery order.  Single-threaded
      caller; blocks while the in-flight window is full. *)

  val submit_batch : t -> cmd array -> unit
  (** Hand over a whole delivered batch, in array order; semantically
      equivalent to submitting each command, but lets the backend amortize
      per-command synchronization. *)

  val submitted : t -> int
  val executed : t -> int

  val in_flight : t -> int
  (** [submitted - executed]; advisory under concurrency. *)

  val crashed_workers : t -> int
  (** Workers killed by injected faults so far (counting each crash, also
      of a respawned worker). *)

  val drain : ?poll:float -> t -> unit
  (** Block until everything submitted has executed (polling every [poll]
      seconds, default 100 us). *)

  val shutdown : ?poll:float -> t -> unit
  (** [drain], close the structure, and join the workers.  The caller must
      have stopped submitting. *)
end
