(** Replicated state machines over atomic broadcast — the deployment layer
    corresponding to the paper's BFT-SMaRt testbed (Figure 1).

    [Make (P) (S)] assembles, for service [S] on platform [P]: the wire
    protocol, replicas (protocol event loop + parallelizer thread +
    sequential or backend-parallel executor + at-most-once screening whose
    per-command response slots replay a retried request's reply),
    batched closed-loop clients routed by partition, and the deployment
    wiring over an in-process network.  Every deployment orders through
    {!Psmr_broadcast.Partition}: a bare execution mode is one partition,
    {!Partitioned} is several, and both catch a lagging replica up with
    the same snapshot cut.  Client failover is notice-first:
    a replica that becomes the leader of a view announces itself to every
    client, and a client resends at once what it had sent under the older
    view; the client timeout stays as the fallback.  Runs identically on
    real threads (tests, examples) and under the simulator (benchmark
    harness). *)

open Psmr_platform

type mode =
  | Sequential  (** classical SMR: execute in delivery order, one at a time *)
  | Parallel of { impl : Psmr_early.Registry.impl; workers : int }
      (** scheduler + COS + worker pool (Algorithm 1) *)
  | Parallel_early of { workers : int; classes : int option }
      (** early-scheduling class-map dispatcher, conservative feed;
          [classes = None] means one class per worker *)
  | Parallel_early_opt of { workers : int; classes : int option }
      (** the same executor as [Parallel_early].  The deployment delivers
          in final order only, so the optimistic protocol would have
          nothing to speculate on: the dispatcher takes the conservative
          batched feed and its workers reply directly. *)
  | Partitioned of { partitions : int; inner : mode }
      (** sharded ordering ({!Psmr_broadcast.Partition}): one sequencer per
          key partition, cross-partition commands merged deterministically
          at delivery; [inner] (any non-[Partitioned] mode) executes the
          merged sequence.  A bare mode is the one-partition case. *)

module Make (P : Platform_intf.S) (S : Psmr_app.Service_intf.S) : sig
  module Net : module type of Psmr_net.Network.Make (P)

  type envelope = { client : int; rid : int; cmd : S.command }
  (** A client command with its at-most-once identity. *)

  type hint = { view : int; leader : int }
  (** A replica's view of one partition (of the one sequencer of a bare
      mode): its current view and that view's leader. *)

  type wire =
    | Order of envelope Psmr_broadcast.Partition.wire
        (** ordering traffic (client requests included), tagged with its
            partition *)
    | Reply of {
        rid : int;
        resp : S.response;
        replica : int;
        leaders : hint array;
            (** the replying replica's hint per partition, adopted by the
                client *)
      }
    | Leaders of hint array
        (** sent to every client by a replica that became the leader of a
            view: its hints, as a reply would carry them *)
    | Tick
    | Client_timeout of { rid : int; attempt : int }
    | Snapshot_request of { have : int array }
        (** a replica stalled behind a truncated log asking for state past
            [have], its delivered seq per partition *)
    | Snapshot of {
        state : string;
        seen : (int * int * int list) list;
        cut : envelope Psmr_broadcast.Partition.cut;
      }
        (** one cut of the merged stream: the service snapshot, each
            client's duplicate screening (client, highest rid, recent
            rids), and the ordering cut (each partition's delivered seq and
            the merge state, {!Psmr_broadcast.Partition.cut}) *)

  (** {2 Clients} *)

  type client

  val window : int
  (** The at-most-once window (128 commands): duplicate screening
      remembers a client's last [window] requests with their response
      slots, which covers a retried batch only if no batch is larger. *)

  val call_batch : client -> S.command array -> S.response array option
  (** Send the commands in one request per partition they touch (one
      request in all in a bare mode — BFT-SMaRt-style client batching),
      each to the replica the client believes leads that partition,
      initially {!Psmr_broadcast.Partition.initial_leader}, and wait for a
      reply to each.  The request carries the partition's
      {!Psmr_broadcast.Partition.entries}: a cross-partition
      command goes to every partition it touches under one uid the client
      owns ([Pmerge.uid ~origin:client ~seq:rid]).  Each reply and each
      {!Leaders} notice carries hints; the client adopts a partition's hint
      unless it knows a newer view, and keeps the targets for later calls.
      When a notice arrives, each partition with unanswered commands sent
      under an older view than the client now knows gets them resent at
      once to that view's leader, uids unchanged, as a fresh attempt:
      failover takes the view change, not the timeout.  The timeout is
      the fallback (a lost notice, a leader that crashed in turn): every
      partition with an unanswered command fails over to the next replica
      and gets its request resent.
      [None] only when the network was shut down.  Raises
      [Invalid_argument] on an empty batch or one larger than {!window}. *)

  val call : client -> S.command -> S.response option
  (** [call_batch] with a single command. *)

  val client_retries : client -> int
  (** Timeout-triggered retries so far (diagnostics); resends on a
      leader notice do not count. *)

  (** {2 Deployments} *)

  module Deployment : sig
    type config = {
      replicas : int;  (** odd, >= 3 *)
      clients : int;
      mode : mode;
      abcast : Psmr_broadcast.Abcast.config;
      tick_interval : float;
      client_timeout : float;
      latency : src:int -> dst:int -> float;
      make_service : int -> S.t;  (** fresh service state for replica [i] *)
      opt_execute :
        (S.t -> S.command -> S.response * (unit -> unit)) option;
          (** Unused: an execute-with-undo hook, which no mode needs —
              the deployment delivers in final order, so
              {!Parallel_early_opt} shares the conservative executor of
              {!Parallel_early} and never rolls back. *)
    }

    val default_config : make_service:(int -> S.t) -> unit -> config
    (** 3 replicas, 1 client, sequential mode, zero latency;
        [opt_execute = None]. *)

    type t

    val create : config -> t
    (** Raises [Invalid_argument] on an even or too small [replicas],
        negative [clients], more than 65536 replicas and clients together
        (a client's cross-partition uid packs its address into 16 bits),
        or a nested or empty {!Partitioned} mode. *)

    val start : t -> unit
    (** Spawn every replica's protocol loop, parallelizer and ticker.  A
        ticker polls the armed fault plan ({!Psmr_fault.Fault.replica}) on
        every tick and crash-stops its replica through {!crash_replica}
        once a [replica-crash] event for it is due. *)

    val client : t -> int -> client
    (** The [i]-th client endpoint (0-based; create one handle per calling
        thread), routing by the partitions of [mode]. *)

    val crash_replica : t -> int -> unit
    (** Crash-stop: the replica stops sending and receiving forever. *)

    val replica_crashed : t -> int -> bool
    (** Whether the replica has crash-stopped ({!crash_replica} or a due
        [replica-crash] event). *)

    val replica_view : ?part:int -> t -> int -> int
    (** The view of partition [part] (default 0; the one sequencer's in a
        bare mode). *)

    val replica_delivered : t -> int -> int
    val replica_executed : t -> int -> int

    val replica_partition_leader : t -> int -> part:int -> int
    (** Current leader of partition [part] as seen by the replica (use to
        pick a sequencer to crash). *)

    val replica_merge_pending : t -> int -> int
    (** Delivered-but-unmerged entries at the replica's merge (0 at
        quiescence, and always 0 with one partition). *)

    val replica_crosses : t -> int -> int
    (** Cross-partition commands the replica's merge has emitted. *)

    val replica_holes : t -> int -> int
    (** Cycle tie-breaks the replica's merge has taken. *)

    val network : t -> wire Net.t

    val shutdown : t -> unit
    (** Close the network and join every replica thread (crashed ones
        included). *)
  end
end
