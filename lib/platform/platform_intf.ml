(** The execution-platform abstraction.

    Every concurrent component of this library (the three COS
    implementations, the scheduler/worker runtime, the network, the atomic
    broadcast and the replicas) is a functor over {!S}.  Three
    implementations exist:

    - {!Real_platform}: OS threads, real mutexes/semaphores/atomics and wall
      clock — used by the test suite, the examples and the real
      micro-benchmarks;
    - [Psmr_sim.Sim_platform]: cooperative processes over a discrete-event
      engine with virtual time, where every synchronization primitive
      advances the clock by a configurable cost — used to reproduce the
      paper's 64-core scalability figures on small hardware;
    - [Psmr_checker.Check_platform]: the same engine under a controlled
      scheduler, where every primitive is a decision point of the model
      checker.

    The two simulated platforms share one implementation of the primitives,
    [Psmr_sim.Sim_sync.Make], and differ only in its hooks (costs vs.
    decision points and vector clocks).  Keeping a single algorithm source
    for every runtime is the point: the simulated figures and the explored
    schedules exercise exactly the statements that the tests verify.  *)

module type MUTEX = sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit
end

module type CONDITION = sig
  type t
  type mutex

  val create : unit -> t

  val wait : t -> mutex -> unit
  (** Atomically release the mutex and block until signalled; the mutex is
      re-acquired before returning.  As with POSIX conditions, spurious
      wake-ups are permitted: callers must re-check their predicate. *)

  val signal : t -> unit
  val broadcast : t -> unit
end

module type SEMAPHORE = sig
  type t

  val create : int -> t
  (** [create n] returns a counting semaphore with initial value [n >= 0]. *)

  val acquire : ?n:int -> t -> unit
  (** [acquire ?n t] decrements by [n] (default 1), blocking until all [n]
      tokens have been taken.  Tokens are taken as they become available, so
      concurrent multi-token acquirers may interleave; the COS algorithms
      only ever multi-acquire from the single insert thread.  Callers must
      not request more tokens than the semaphore can ever hold. *)

  val release : ?n:int -> t -> unit
  (** Increment by [n] (default 1), waking blocked acquirers. *)

  val value : t -> int
  (** Instantaneous value; advisory only under concurrency. *)
end

module type ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a

  val compare_and_set : 'a t -> 'a -> 'a -> bool
  (** Physical-equality compare-and-set, as [Stdlib.Atomic]. *)

  val fetch_and_add : int t -> int -> int
end

(** Kinds of algorithm-internal work charged to the cost model.  The real
    platform ignores these (the surrounding code {e is} the work); the
    simulated platform advances virtual time by a configured amount per
    kind.  This is how O(graph-size) traversal costs of the COS algorithms
    become visible to the simulator. *)
type work_kind =
  | Visit  (** following one node of a graph / list traversal *)
  | Conflict_check  (** evaluating the conflict relation on a command pair *)
  | Alloc  (** allocating a node structure *)
  | Marshal
      (** per-command protocol processing: the sequencer's per-command
          ordering work, and on a replica the executing worker's share
          (deserializing the command, building and serializing the reply
          envelope), or the applier's for a reply it replays to a
          duplicate *)
  | Hash
      (** one hash-index lookup or update on the keyed insert path (a
          hashtable probe over a command's key footprint) *)
  | Fault
      (** consulting an armed fault plan at an injection point (a fault
          actually firing); never charged while fault injection is
          disabled, so fault-free runs stay bit-identical *)

module type S = sig
  val name : string
  (** Human-readable platform name ("threads" or "sim"). *)

  module Mutex : MUTEX
  module Condition : CONDITION with type mutex := Mutex.t
  module Semaphore : SEMAPHORE
  module Atomic : ATOMIC

  val spawn : ?name:string -> (unit -> unit) -> unit
  (** Start an independent thread of control running the closure.  Completion
      is observed with application-level synchronization (see {!Latch}). *)

  val yield : unit -> unit
  (** Politely give up the processor (no-op on the simulator, where blocking
      is explicit). *)

  val now : unit -> float
  (** Current time in seconds: wall clock or virtual clock. *)

  val sleep : float -> unit
  (** Block the calling thread for the given number of seconds. *)

  val after : float -> (unit -> unit) -> unit
  (** [after d f] runs [f] in a fresh thread of control once [d] seconds have
      elapsed.  Used for protocol timeouts and simulated link latency. *)

  val work : work_kind -> unit
  (** Charge one unit of internal work to the cost model (see
      {!type:work_kind}). *)
end
