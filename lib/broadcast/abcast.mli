(** Atomic broadcast: a leader-based (sequencer) total-order protocol for
    the crash failure model with [n = 2f + 1] replicas, in the style of
    Viewstamped Replication — the role BFT-SMaRt (in crash mode) plays in
    the paper's testbed.

    Provides the four standard properties (§2 of the paper): validity,
    uniform agreement, uniform integrity and uniform total order.  Features:
    pipeline-driven batching (a batch is cut as soon as the leader has
    fewer than four uncommitted, with size and age caps), one commit
    rule for every replica (a batch commits where [f + 1] holders of it in
    the current view are known; followers forward their acknowledgement to
    [f - 1] ring peers, so every replica commits two hops after the cut,
    and with [n = 3] a follower commits what it accepts), heartbeats,
    view change on leader failure that keeps the latest view's log,
    periodic checkpoint reports with quorum-stable log truncation, and gap
    recovery by log transfer (also into a view installed while the
    replica was cut off: a [Commit] from a later view makes it fetch that
    view's log past its commit point, replacing its uncommitted suffix).

    Threading contract: the module owns no threads; the host feeds incoming
    messages to {!Make.handle} and calls {!Make.tick} periodically from one
    thread per instance.  Batches are cut inside {!Make.handle} and
    {!Make.submit}, except the age cap, which {!Make.tick} enforces. *)

open Psmr_platform

type 'c message =
  | Request of 'c array  (** client commands to order (client or forwarder) *)
  | Prepare of { view : int; seq : int; cmds : 'c array; committed : int }
  | Prepare_ok of { view : int; seq : int }
  | Commit of { view : int; committed : int }  (** also the heartbeat *)
  | Applied of { seq : int }  (** checkpoint report for log truncation *)
  | Need_log of { from_seq : int }  (** gap recovery request *)
  | Log_transfer of {
      view : int;
      base : int;
      log : 'c array array;
      committed : int;
    }
  | Start_view_change of { view : int }
  | Do_view_change of {
      view : int;
      last_normal : int;  (** the last view the sender was Normal in *)
      base : int;
      log : 'c array array;
      committed : int;
    }
  | Start_view of {
      view : int;
      base : int;
      log : 'c array array;
      committed : int;
    }

val log_src : Logs.src
(** Protocol events (view changes, truncation, stalls) are reported through
    this [Logs] source ("psmr.abcast"); silent unless the application sets a
    reporter and level. *)

type config = {
  batch_max : int;  (** cut a batch at this many commands *)
  batch_delay : float;
      (** ... or at this age, whichever first.  Both are caps: the leader
          cuts at once when its window of in-flight batches has room, so
          the age cut matters only while the window is full.  It happens
          on the first periodic {!Make.tick} past this age. *)
  heartbeat_interval : float;
  election_timeout : float;
  checkpoint_interval : int;
      (** broadcast an [Applied] report every this many delivered batches;
          0 disables checkpointing (the log then grows without bound) *)
}

val default_config : config

type status = Normal | View_change

module Make (P : Platform_intf.S) : sig
  type 'c t

  val create :
    ?config:config ->
    ?leader_offset:int ->
    id:int ->
    n:int ->
    send:(int -> 'c message -> unit) ->
    deliver:('c array -> unit) ->
    unit ->
    'c t
  (** One protocol instance for replica [id] of [n] (odd, >= 3).  [send]
      transmits a message to a peer; [deliver] receives each committed
      batch, in sequence order, from within {!handle}/{!tick}.  A batch is
      committed at a replica once the replica knows [f + 1] replicas of the
      current view hold it, so a follower of a 3-replica group delivers a
      batch as it accepts the [Prepare], before the leader does.  A
      follower sends its [Prepare_ok] to the leader and to the next
      [f - 1] followers in ring order, so with [n >= 5] a follower
      delivers on its ring predecessors' acks, as the leader commits, and
      the leader's [Commit] is the fallback when one is lost.  Every
      replica delivers the same batches in the same order: the view change
      keeps the latest view's log, which holds every batch [f + 1]
      replicas held in an earlier view.
      [leader_offset] (default 0) rotates the view->leader map: the leader
      of view [v] is replica [(v + leader_offset) mod n].  Partitioned
      deployments give partition [p] offset [p mod n] so the sequencer
      load spreads across replicas instead of piling on replica 0. *)

  val handle : 'c t -> src:int -> 'c message -> unit
  (** Process one incoming protocol message.  Deliveries happen here: on a
      [Prepare_ok] that completes a quorum (at the leader, or at a
      follower that accepted the batch), on a [Prepare] a 3-replica
      follower accepts, and on any message carrying a higher commit
      point. *)

  val tick : 'c t -> unit
  (** Periodic duties: batch age cap and heartbeat (leader), failure
      detection (followers).  Call at a granularity finer than the
      configured delays.  The batch cut here is the [batch_delay] cap on a
      batch held behind an in-flight one, so it lands up to one tick
      interval past that age. *)

  val submit : 'c t -> 'c array -> unit
  (** Order commands originated at this replica: enqueued if leader,
      forwarded otherwise. *)

  (** {2 Introspection} *)

  val view : 'c t -> int
  val leader : 'c t -> int
  val views_installed : 'c t -> int
  val delivered_seq : 'c t -> int

  val log_base : 'c t -> int
  (** Sequence number of the first retained log entry (> 0 once
      checkpointing has truncated). *)

  val log_length : 'c t -> int

  val is_stalled : 'c t -> bool
  (** True when the replica found a gap not recoverable from peers' logs;
      the host should obtain a service snapshot and call
      {!install_snapshot}. *)

  val install_snapshot : 'c t -> seq:int -> unit
  (** Fast-forward past a gap: treat everything at or below [seq] as
      delivered (the host has installed a service snapshot taken at [seq])
      and restart the log empty at [seq + 1].  Clears the stall.  No-op
      unless it advances the delivery point. *)
end
