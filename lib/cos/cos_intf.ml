(** The Conflict-Ordered Set (COS) abstract data type — the paper's §3.3
    generalization of dependency-graph command scheduling for parallel state
    machine replication.

    Sequential specification (with [#] the conflict relation):
    - [insert c] adds command [c], after all previously inserted commands;
    - [get] returns a command [c] such that (a) [c] is in the set, (b) no
      previous [get] returned [c], and (c) no command [c'] inserted before
      [c] with [c # c'] is still in the set;
    - [remove c] deletes [c] (called after [c] has been executed).

    The scheduler thread calls [insert] sequentially in atomic-broadcast
    delivery order; any number of worker threads call [get]/[remove]
    concurrently. *)

open Psmr_platform

(** Commands as seen by the COS: only the conflict relation matters here. *)
module type COMMAND = sig
  type t

  val conflict : t -> t -> bool
  (** [conflict a b] is true iff the commands access a common variable and at
      least one writes it.  Must be symmetric. *)

  val pp : Format.formatter -> t -> unit
end

(** Commands that additionally expose the variables they touch, so an
    indexed COS can find dependencies by key lookup instead of a pairwise
    scan.  [conflict] must remain consistent with the footprints:
    [conflict a b] iff the footprints share a key and at least one of the
    sharers writes it. *)
module type KEYED_COMMAND = sig
  include COMMAND

  val footprint : t -> (int * bool) list
  (** [footprint c] lists the variables [c] accesses as [(key, is_write)]
      pairs.  Keys are application-chosen integers; a command touching no
      key conflicts with nothing.  Footprints should be small (the cost of
      an indexed insert is O(|footprint|)) and duplicate keys are
      permitted (a [(k, true)] entry subsumes [(k, false)]). *)
end

module type S = sig
  type cmd

  type t
  (** A conflict-ordered set of pending commands. *)

  type handle
  (** A command reserved for execution by {!get}; pass it back to
      {!remove}. *)

  val create : ?max_size:int -> ?worker_bound:int -> unit -> t
  (** [create ()] returns an empty structure holding at most [max_size]
      commands (default 150, the paper's configuration).  [insert] blocks
      while the structure is full.  [worker_bound] (default 1024) is an
      upper bound on the number of threads that may ever block inside the
      structure; {!close} uses it to size its wake-up flood. *)

  val insert : t -> cmd -> unit
  (** Add a command.  Must be called by a single thread (the scheduler), in
      delivery order; blocks while the structure is full. *)

  val insert_batch : t -> cmd array -> unit
  (** Insert every command of a delivered batch, in array order.  Same
      single-threaded contract as {!insert}.  Semantically equivalent to
      [Array.iter (insert t)] (the default); implementations override it to
      pay one [space] acquisition per batch instead of per command.

      How the [ready] releases are grouped depends on what an insert
      costs.  An indexed insert is O(footprint), so the indexed COS
      releases once per chunk.  A scan insert (lock-free) walks the whole
      graph, so it keeps one release per promoted command: workers then
      drain the graph while later commands of the batch walk it, and the
      walks stay short.  Held to the end of the batch, the releases leave
      the workers idle while every walk lengthens, and the batch insert
      turns quadratic in the batch length. *)

  val get : t -> handle option
  (** Reserve the oldest command that is free of dependencies and not yet
      reserved.  Blocks until one is available; returns [None] after
      {!close} once nothing remains to execute.  Thread-safe. *)

  val command : handle -> cmd

  val remove : t -> handle -> unit
  (** Delete an executed command, releasing commands that depended on it.
      Thread-safe. *)

  val requeue : t -> handle -> unit
  (** Return a reserved command to the ready state {e without} removing it
      — the fault-tolerance path for a worker that died between {!get} and
      {!remove}.  The command keeps its delivery position and its
      dependency edges, so the conflict order is unaffected; a subsequent
      {!get} (by any worker) may return it again.  Must be called by the
      dead worker's supervisor, instead of {!remove}, at most once per
      {!get}.  Thread-safe. *)

  val close : t -> unit
  (** Initiate shutdown: blocked and future {!get} calls return [None] once
      no ready command remains.  Call after the scheduler has stopped
      inserting.  Idempotent. *)

  val pending : t -> int
  (** Number of commands currently in the structure (inserted, not yet
      removed).  Advisory under concurrency. *)

  val invariant : ?strict:bool -> t -> string list
  (** Check implementation-specific structural invariants (graph acyclicity,
      legal node states, slot accounting, ...) and return a description of
      every violation found ([[]] when all hold).

      Contract: read-only, non-blocking and termination-bounded — it must
      never take a lock, block on a semaphore or loop on a cell, so the
      model checker ({!Psmr_check}) can call it between any two scheduled
      operations.  Without [strict] only properties stable under in-flight
      concurrent operations are checked; [~strict:true] adds exact
      accounting checks (size counters, edge closure, drained-state
      emptiness) that are meaningful only at quiescent points — after
      creation, or once every outstanding operation has returned. *)
end

(** What each of the paper's algorithms provides: a COS for any platform and
    any command type. *)
module type IMPL = functor (P : Platform_intf.S) (C : COMMAND) ->
  S with type cmd = C.t

(** A COS that needs key footprints (the indexed implementation). *)
module type KEYED_IMPL = functor (P : Platform_intf.S) (C : KEYED_COMMAND) ->
  S with type cmd = C.t

(** Paper-default bound on the dependency graph (§7.2). *)
let default_max_size = 150
