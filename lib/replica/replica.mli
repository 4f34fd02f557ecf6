(** Replicated state machines over atomic broadcast — the deployment layer
    corresponding to the paper's BFT-SMaRt testbed (Figure 1).

    [Make (P) (S)] assembles, for service [S] on platform [P]: the wire
    protocol, replicas (protocol event loop + parallelizer thread +
    sequential or backend-parallel executor + at-most-once reply cache),
    batched closed-loop clients with timeout failover, and the deployment
    wiring over an in-process network.  Runs identically on real threads
    (tests, examples) and under the simulator (benchmark harness). *)

open Psmr_platform

type mode =
  | Sequential  (** classical SMR: execute in delivery order, one at a time *)
  | Parallel of { impl : Psmr_cos.Registry.impl; workers : int }
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
          merged sequence.  Snapshot catch-up is disabled in this mode —
          lagging replicas recover via per-partition log transfer. *)

val mode_label : mode -> string

module Make (P : Platform_intf.S) (S : Psmr_app.Service_intf.S) : sig
  module Net : module type of Psmr_net.Network.Make (P)

  type envelope = { client : int; rid : int; cmd : S.command }
  (** A client command with its at-most-once identity. *)

  type wire =
    | Proto of envelope Psmr_broadcast.Abcast.message
    | PProto of envelope Psmr_broadcast.Partition.wire
        (** partitioned-mode peer traffic, tagged with its partition *)
    | Reply of { rid : int; resp : S.response; replica : int }
    | Tick
    | Client_timeout of { rid : int; attempt : int }
    | Snapshot_request of { have_seq : int }
        (** a replica stalled behind a truncated log asking for state *)
    | Snapshot of { state : string; rids : (int * int) list; seq : int }
        (** service snapshot + at-most-once table, cut at batch [seq] *)

  (** {2 Clients} *)

  type client

  val call_batch : client -> S.command array -> S.response array option
  (** Send all commands in one request (BFT-SMaRt-style client batching)
      and wait for a reply to each, failing over to the next replica on
      timeout.  [None] only when the network was shut down. *)

  val call : client -> S.command -> S.response option
  (** [call_batch] with a single command. *)

  val client_retries : client -> int
  (** Timeout-triggered retries so far (diagnostics). *)

  (** {2 Deployments} *)

  module Deployment : sig
    type config = {
      replicas : int;  (** odd, >= 3 *)
      clients : int;
      mode : mode;
      cos_max_size : int option;  (** parallel executors' graph bound *)
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

    val start : t -> unit
    (** Spawn every replica's protocol loop, parallelizer and ticker. *)

    val client : t -> int -> client
    (** The [i]-th client endpoint (0-based; create one handle per calling
        thread). *)

    val crash_replica : t -> int -> unit
    (** Crash-stop: the replica stops sending and receiving forever. *)

    val replica_view : t -> int -> int
    (** Partitioned mode reports partition 0's view. *)

    val replica_delivered : t -> int -> int
    val replica_executed : t -> int -> int

    val replica_partition_leader : t -> int -> part:int -> int
    (** Current leader of partition [part] as seen by the replica
        (partitioned mode only; use to pick a sequencer to crash). *)

    val replica_merge_pending : t -> int -> int
    (** Delivered-but-unmerged entries at the replica's merge (0 at
        quiescence, and always 0 in single-sequencer modes). *)

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
