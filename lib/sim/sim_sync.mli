(** The simulated blocking primitives and atomics, written once over
    {!Engine} for both simulated platforms: FIFO mutexes, condition
    variables, counting semaphores and sequentially consistent atomics,
    plus a bounded CPU bank.

    {!Make} holds the waiter queues, the direct handoff, the atomic
    enqueue-and-release of [Condition.wait] and the [sync.*] / [cas]
    probes.  What differs between the platforms is a {!HOOKS} module:
    [Sim_platform]'s hooks charge {!Costs} (processes resumed after
    blocking additionally pay [costs.wakeup] — the asymmetry that separates
    blocking synchronization from lock-free code in the reproduced
    figures); the model checker's hooks take a decision point per operation
    and keep the happens-before clocks. *)

(** The operations, by object: mutex, condition, semaphore ([Value] is
    [Semaphore.value]), atomic. *)
type op =
  | Lock | Unlock
  | Wait | Signal | Broadcast
  | Acquire | Release | Value
  | Get | Set | Exchange | Cas | Faa

module type HOOKS = sig
  type obj
  (** The platform's state per mutex, condition, semaphore and atomic. *)

  val engine : Engine.t

  val obj : unit -> obj
  (** Called once per created object, in creation order. *)

  val enter : obj -> op -> unit
  (** The start of every operation (after the probe of a condition
      operation), before any state is read. *)

  val woken : unit -> unit
  (** In a process resumed from a suspension, before it goes on. *)

  val released : obj -> unit
  (** A release edge: unlock, a condition wait on its mutex, signal,
      broadcast and semaphore release. *)

  val acquired : obj -> unit
  (** An acquire edge: lock, semaphore acquire, the wake-up from a
      condition wait, and every atomic read. *)

  val written : obj -> plain:bool -> unit
  (** An atomic store; [plain] for [Atomic.set]. *)
end

module Make (H : HOOKS) : sig
  module Mutex : Psmr_platform.Platform_intf.MUTEX
  (** [unlock] by a process that does not hold the mutex raises
      [Sys_error "Mutex.unlock: Operation not permitted"], as OCaml's
      error-checking [Stdlib.Mutex] does; [Condition.wait] on such a mutex
      raises the same for ["Condition.wait"]. *)

  module Condition :
    Psmr_platform.Platform_intf.CONDITION with type mutex := Mutex.t

  module Semaphore : Psmr_platform.Platform_intf.SEMAPHORE
  module Atomic : Psmr_platform.Platform_intf.ATOMIC
end

(** A bank of processor cores: at most [cores] processes hold a slot at a
    time; [use t d] models executing [d] seconds of computation.  FIFO
    admission. *)
module Cpu : sig
  type t

  val create : cores:int -> t
  val acquire : t -> unit
  val release : t -> unit
  val use : t -> float -> unit
end
