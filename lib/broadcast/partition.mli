(** Partitioned atomic broadcast: N independent {!Abcast} sequencer
    instances ordering disjoint key shards, folded into one deterministic
    delivery sequence by {!Pmerge} (see docs/PARTITIONING.md).

    The key→partition map is a {!Psmr_early.Class_map} with
    [classes = workers = partitions]; single-partition commands are ordered
    by their home sequencer alone, cross-partition commands are multicast
    to every touched sequencer and merged at the rendezvous.  Partition [p]
    rotates its leadership to start at replica [p mod n]. *)

open Psmr_platform

type 'c wire = { part : int; msg : 'c Pmerge.entry Abcast.message }
(** Wire format: routes the inner protocol message to partition [part]'s
    sequencer instance on the receiving replica. *)

val wire_kind : 'c wire -> string
(** ["p<part>:<kind>"] tag for logging. *)

module Make (P : Platform_intf.S) : sig
  type 'c t

  val create :
    ?config:Abcast.config ->
    partitions:int ->
    id:int ->
    n:int ->
    send:(int -> 'c wire -> unit) ->
    deliver:('c Pmerge.emitted -> unit) ->
    unit ->
    'c t
  (** One partitioned-broadcast endpoint for replica [id] of [n] (odd,
      >= 3, <= 64).  [send] transmits a wire message to a peer; [deliver]
      receives each merged command from within {!handle}/{!tick}. *)

  val submit_batch :
    'c t -> footprint:('c -> (int * bool) list) -> 'c array -> unit
  (** Order a batch of commands.  Each command's [(key, is_write)]
      footprint determines the partitions it touches ([key mod partitions]
      per key): one partition → a [Single] entry for its sequencer;
      several → one [Cross] entry with a fresh globally unique uid for
      every touched sequencer.  Each touched partition gets one sequencer
      submission for the whole batch — hence, from a replica that is not
      that partition's leader, one [Request] wire message — with its
      entries in array order.  Coalescing keeps a remote leader's FIFO
      input queue short, so its [Prepare_ok] acks — which gate the commit
      point, and with it every cross-partition rendezvous against that
      partition — do not queue behind forwarded requests. *)

  val handle : 'c t -> src:int -> 'c wire -> unit
  (** Feed one incoming wire message from replica [src]. *)

  val tick : 'c t -> unit
  (** Drive every partition's batch/heartbeat/election timers. *)

  (** {2 Introspection} *)

  val partitions : 'c t -> int
  val view : 'c t -> part:int -> int
  val is_leader : 'c t -> part:int -> bool
  val leader : 'c t -> part:int -> int
  val delivered_seq : 'c t -> part:int -> int
  val committed_seq : 'c t -> part:int -> int

  val log_end : 'c t -> part:int -> int
  (** First sequence number of partition [part] with no local log entry. *)

  val pending_length : 'c t -> part:int -> int
  (** Commands accepted by partition [part]'s sequencer but not yet sealed
      into a batch (nonzero only on its leader between cuts). *)

  val views_installed : 'c t -> int
  (** Completed view changes, summed over partitions. *)

  val is_stalled : 'c t -> bool
  (** Some partition's sequencer hit a gap beyond log-transfer recovery. *)

  val emitted : 'c t -> int
  val crosses : 'c t -> int
  val holes : 'c t -> int

  val merge_pending : 'c t -> int
  (** Delivered-but-unmerged entries (0 at quiescence). *)
end
