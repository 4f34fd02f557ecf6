(** The early-scheduling execution runtime: per-worker token FIFOs driven
    by a static {!Class_map}, a {!Barrier} rendezvous for cross-class
    writes, one shared ready queue for cross-class reads, and an
    optimistic mode that — when the service provides an undo capability —
    executes speculatively on optimistic delivery and rolls back (undo,
    then re-execute in committed order) on a confirmation mismatch.

    Implements {!Psmr_sched.Sched_intf.BACKEND} (via {!Make.start} with
    default configuration) plus the early-specific surface: configured
    startup ({!Make.start_full}), the optimistic submit/confirm protocol,
    and ghost diagnostics for the checker.

    Submit contract: {!Make.submit}, {!Make.submit_batch} and
    {!Make.submit_optimistic} are called from one submitting thread (the
    parallelizer), and {!Make.confirm} from one confirming thread, in
    final delivery order.  The two may be one thread, or two that
    interleave at their platform operations — as the optimistic feeder of
    [Psmr_harness.Standalone] submits from one simulated process and
    confirms from another: submit-side state stays in position order
    across every such interleaving (a speculation pushed while a repair
    re-appended victims is merged into place). *)

open Psmr_platform

module Make (P : Platform_intf.S) (C : Psmr_cos.Cos_intf.KEYED_COMMAND) : sig
  type cmd = C.t
  type t

  val start_full :
    ?max_size:int ->
    ?classes:int ->
    ?repair:bool ->
    ?write_gate:bool ->
    ?read_gate:bool ->
    ?speculate:(cmd -> unit -> unit) ->
    ?on_commit:(cmd -> unit) ->
    ?fault:(id:int -> nth:int -> Psmr_fault.Fault.worker_action) ->
    workers:int ->
    execute:(cmd -> unit) ->
    unit ->
    t
  (** Spawn the worker pool.  [max_size] bounds the in-flight window
      (default {!Psmr_cos.Cos_intf.default_max_size}); [classes] sizes the
      class map (default one class per worker); [repair = false] disables
      the mis-speculation rollback — a deliberately broken variant the
      checker's oracles must catch; [write_gate = false] lets writes run
      past still-executing shared reads, and [read_gate = false] makes a
      shared read ready before the writes ahead of it have completed —
      two more such planted bugs; [speculate cmd] executes [cmd] through
      the service's undo capability and returns the closure that reverts
      it — installing it turns pending single-queue tokens into
      speculative executions (see {!confirm}); [on_commit cmd] runs on the
      committing thread once [cmd]'s effects are final (never for
      rolled-back executions) — an optimistic feeder answers clients here;
      [fault] overrides the workers' per-fetch fault consultation
      ({!Psmr_sched.Pool.Make.create}; default: the {!Psmr_fault.Fault}
      facade, keyed by worker id) — the checker passes logical
      [(worker, nth-fetch)] crash points here.

      Without [speculate], optimistic submissions only position tokens
      early (dispatch-time optimism): execution still waits for the
      confirmation, and a repair merely revokes and re-appends.  With
      [speculate], execution itself is optimistic and a repair becomes
      undo + re-execute. *)

  val start :
    ?fault:(id:int -> nth:int -> Psmr_fault.Fault.worker_action) ->
    ?max_size:int ->
    workers:int ->
    execute:(cmd -> unit) ->
    unit ->
    t
  (** [start_full] with default configuration — the
      {!Psmr_sched.Sched_intf.BACKEND} entry point. *)

  val submit : t -> cmd -> unit
  (** Final-order submission: plan, append confirmed tokens, and repair
      any mis-speculated pending tokens ahead of them.  A cross-class
      read appends none: it goes on the ready queue once the writes ahead
      of it complete.  Blocks while the in-flight window is full. *)

  val submit_batch : t -> cmd array -> unit
  (** [submit] for each command in order, in rounds: each takes the window
      slots free (banked ones first, at least one), appends that slice
      with one lock round per queue, and banks unspent slots for later
      submissions (per-command [submit] while speculation is
      outstanding).  Any batch length is accepted. *)

  type spec
  (** Handle of an optimistic submission, to be passed to {!confirm}. *)

  val submit_optimistic : t -> cmd -> spec
  (** Enqueue on optimistic delivery: tokens enter the queues as pending
      (position speculated, not yet executable); a cross-class read
      registers without tokens and becomes ready no earlier than its
      {!confirm}.  Blocks while the in-flight window is full. *)

  val confirm : t -> spec -> unit
  (** Final delivery of an optimistically submitted command.  If its
      speculated position is consistent with final order (no unconfirmed
      speculation with a smaller position sharing one of its queues), this
      is the fast path: already-speculated work is committed in place,
      queued tokens flip to confirmed.  Otherwise the mis-speculated
      commands ahead of it are repaired — any speculative executions among
      them (and the collateral executions stacked above them in the undo
      logs) are undone in reverse order, the collaterals re-execute
      against the repaired state, and the victims are revoked and
      re-appended behind this command.  @raise Invalid_argument on double
      confirmation or on a handle not from {!submit_optimistic}. *)

  val submitted : t -> int
  (** Final-order submissions so far ([submit] calls + confirmations). *)

  val executed : t -> int
  val in_flight : t -> int
  val crashed_workers : t -> int

  val dropped : t -> int
  (** Optimistic submissions never confirmed and discarded at close —
      including speculative executions undone by {!close} because their
      confirmation never arrived. *)

  val drain : ?poll:float -> t -> unit

  val close : t -> unit
  (** Close every worker queue: workers finish the confirmed backlog and
      exit; pending (unconfirmed) speculations are discarded — executed
      ones undone newest-first — and counted in {!dropped}.  {!shutdown}
      is [drain] then [close]; the model checker calls [close] directly
      because [drain]'s polling loop would spin under a controlled
      scheduler. *)

  val shutdown : ?poll:float -> t -> unit

  (** {2 Configuration and statistics} *)

  val classes : t -> int

  val direct_count : t -> int
  (** Commands dispatched on the single-queue fast path. *)

  val rendezvous_count : t -> int
  (** Cross-class commands: writes through a barrier, reads through the
      ready queue. *)

  val repair_count : t -> int
  (** Confirmations that detected a mis-speculation. *)

  val revoked_count : t -> int
  (** Commands revoked and re-enqueued by those repairs. *)

  val spec_exec_count : t -> int
  (** Speculative executions performed by workers (commits + rollbacks). *)

  val rollback_count : t -> int
  (** Executed commands whose effects were undone by repairs. *)

  val redo_count : t -> int
  (** Re-executions of previously undone commands. *)

  val redo_depth_max : t -> int
  (** Maximum number of times any single command was executed. *)

  (** {2 Ghost diagnostics}

      Like the COS [invariant]: no locks taken, termination-bounded, exact
      only between scheduled operations (under the model checker) or at
      quiescence. *)

  val stalled_barriers : t -> string list
  (** Write barriers with a partial rendezvous (some but not all members
      arrived), and ready shared reads no worker took — the signatures of
      a class-barrier deadlock when worker processes are blocked. *)

  val invariant : ?strict:bool -> t -> string list
  (** Structural invariants: pending counters match queue contents, and no
      queue holds a confirmed token behind a pending one.  [~strict:true]
      adds quiescence checks: queues and the ready queue empty, submitted
      = executed, no stalled barrier. *)
end
