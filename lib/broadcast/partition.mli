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
    ?no_barrier:bool ->
    partitions:int ->
    id:int ->
    n:int ->
    send:(int -> 'c wire -> unit) ->
    deliver:('c Pmerge.emitted -> unit) ->
    unit ->
    'c t
  (** One partitioned-broadcast endpoint for replica [id] of [n] (odd,
      >= 3, <= 64).  [send] transmits a wire message to a peer; [deliver]
      receives each merged command from within {!handle}/{!tick}.
      [no_barrier] plants [Pmerge]'s rendezvous-skipping bug (checker
      targets only). *)

  val submit : 'c t -> footprint:(int * bool) list -> 'c -> unit
  (** Order one command.  The [(key, is_write)] footprint determines the
      touched partitions ([key mod partitions] per key): one partition →
      submitted to its sequencer as a [Single]; several → one [Cross]
      entry with a fresh globally unique uid multicast to every touched
      sequencer. *)

  val submit_batch :
    'c t -> footprint:('c -> (int * bool) list) -> 'c array -> unit
  (** Order a batch of commands, coalescing the per-partition traffic: one
      sequencer submission — hence, from a replica that is not that
      partition's leader, one [Request] wire message — per touched
      partition for the whole batch.  Per-partition entry order is the
      same as sequential {!submit} calls in array order would produce.

      Prefer this over a {!submit} loop whenever commands arrive in
      batches: per-command forwarding floods a remote sequencer leader's
      FIFO input queue, and its [Prepare_ok] acks — which gate the commit
      point, and with it every cross-partition rendezvous against that
      partition — queue behind the flood. *)

  val footprint_parts : 'c t -> (int * bool) list -> int array
  (** The ascending 0-based partitions a footprint touches (the same
      computation {!submit} performs). *)

  val handle : 'c t -> src:int -> 'c wire -> unit
  (** Feed one incoming wire message from replica [src]. *)

  val tick : 'c t -> unit
  (** Drive every partition's batch/heartbeat/election timers. *)

  val batch_deadline : 'c t -> float option
  (** The earliest {!Abcast.Make.batch_deadline} over this replica's
      sequencers ([None] when none leads with a pending batch). *)

  (** {2 Introspection} *)

  val partitions : 'c t -> int
  val part_of_key : 'c t -> int -> int
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

  val stream_pushed : 'c t -> part:int -> int
  (** Per-partition sequence counter: entries partition [part]'s sequencer
      has delivered into the merge. *)
end
