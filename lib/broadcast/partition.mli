(** Partitioned atomic broadcast: N independent {!Abcast} sequencer
    instances ordering disjoint key shards, folded into one deterministic
    delivery sequence by {!Pmerge} (see docs/PARTITIONING.md).

    Key [k] lives in partition [k mod partitions] ({!touched});
    single-partition commands are ordered by their home sequencer alone,
    cross-partition commands are multicast to every touched sequencer and
    merged at the rendezvous.  Partition [p] rotates its leadership to
    start at replica {!initial_leader}. *)

open Psmr_platform

type 'c wire = { part : int; msg : 'c Pmerge.entry Abcast.message }
(** Wire format: routes the inner protocol message to partition [part]'s
    sequencer instance on the receiving replica. *)

(** {2 Routing}

    Pure, so a client routes with the same rule the sequencers bucket by. *)

val touched : partitions:int -> (int * 'a) list -> int array
(** The ascending, distinct partitions a [(key, _)] footprint touches:
    key [k] lives in partition [k mod partitions], normalized to
    [0..partitions-1] (negative keys included).  The empty footprint
    conflicts with nothing and is ordered by partition 0: [[|0|]]. *)

val initial_leader : n:int -> int -> int
(** [initial_leader ~n p = p mod n]: partition [p]'s leader in view 0 (its
    {!Abcast} [leader_offset]); view [v] is led by [(v + p) mod n]. *)

val entries :
  partitions:int ->
  footprint:('c -> (int * 'a) list) ->
  uid:('c -> int) ->
  'c array ->
  'c Pmerge.entry array array
(** [entries ~partitions ~footprint ~uid cmds] buckets a batch by
    partition: index [p] holds, in array order, a [Single] for each command
    touching only [p] and the one [Cross] entry (uid from [uid], asked once
    per cross command in array order) of each command touching [p] among
    others.  Pure. *)

(** {2 Snapshot cut} *)

type 'c cut
(** The ordering half of a state snapshot: each partition's delivered seq
    and a {!Pmerge.cut} of the merge that folded exactly those stream
    prefixes.  The host adds the service state of every command the merge
    emitted up to the cut. *)

val supersedes : int array -> int array -> bool
(** [supersedes seqs have]: [seqs] is at or past [have] in every partition
    and past it in one, so a cut at [seqs] moves a replica at [have]
    forward and rolls nothing back. *)

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
      >= 3).  [send] transmits a wire message to a peer; [deliver]
      receives each merged command from within {!handle}/{!tick}. *)

  val submit_batch :
    'c t -> footprint:('c -> (int * bool) list) -> 'c array -> unit
  (** Order a batch of commands originated at this replica: {!entries},
      each cross command numbered [Pmerge.uid ~origin:id ~seq] from a local
      counter, then one sequencer submission per touched partition —
      hence, from a replica that is not that partition's leader, one
      [Request] wire message — with its entries in array order.
      Coalescing keeps a remote leader's FIFO input queue short, so its
      [Prepare_ok] acks — which gate the commit point, and with it every
      cross-partition rendezvous against that partition — do not queue
      behind forwarded requests.  (A [Replica] client builds its entries
      itself and sends each partition's straight to its leader.) *)

  val handle : 'c t -> src:int -> 'c wire -> unit
  (** Feed one incoming wire message from replica [src]. *)

  val tick : 'c t -> unit
  (** Drive every partition's batch/heartbeat/election timers. *)

  (** {2 Snapshot catch-up} *)

  val delivered : 'c t -> int array
  (** Each partition's delivered seq. *)

  val cut : 'c t -> 'c cut
  (** The endpoint's cut now (call between {!handle}/{!tick} calls). *)

  val install_cut : 'c t -> 'c cut -> bool
  (** Fast-forward to a peer's cut if it {!supersedes} this endpoint's
      {!delivered} seqs: every partition's sequencer skips to the cut's
      seq (restarting its log there) and the merge takes the cut's
      state.  Emits nothing.  True if installed; the host then installs
      the matching service state. *)

  (** {2 Introspection} *)

  val partitions : 'c t -> int
  val view : 'c t -> part:int -> int
  val leader : 'c t -> part:int -> int

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
