(** Deterministic cross-partition merge: folds the per-partition totally
    ordered delivery streams of a partitioned atomic broadcast into one
    emission sequence whose order-relevant decisions depend only on stream
    contents, never on arrival timing — so every replica derives the same
    relative order for any two commands sharing a partition.

    Protocol: single-partition commands emit at their home stream's head;
    a cross-partition command emits (once, attributed to its designated
    lowest touched partition) when it heads {e all} its touched streams —
    the rendezvous; inconsistent sequencer orders wedge the rendezvous in
    a cycle, broken — only once the wedge is closed (its heads fully seen
    and waiting only on each other), so the choice depends on stream
    contents alone — by emitting its head with the smallest [(ts, uid)],
    leaving holes that are skipped when reached.  See
    docs/PARTITIONING.md.

    Single-threaded by contract; pure OCaml (no platform effects). *)

type 'c entry =
  | Single of 'c
  | Cross of { uid : int; parts : int array; cmd : 'c }
      (** [parts]: ascending touched partition ids (>= 2 of them); [uid]:
          globally unique ({!uid}), identical in every touched stream's
          copy. *)

val uid : origin:int -> seq:int -> int
(** The one cross-uid packing: [origin] (a node address, [0 <= origin <
    65536]) in the low 16 bits, the origin's own sequence number [seq >= 0]
    above them.  Uids therefore compare as [(seq, origin)] pairs, the
    [(ts, uid)] tie-break's secondary key.  Raises [Invalid_argument] out
    of range. *)

type 'c emitted = {
  part : int;  (** home partition (single) or designated lowest (cross) *)
  cross : bool;
  uid : int;  (** cross uid, or [-1] for single-partition commands *)
  cmd : 'c;
}

type 'c t

val create :
  ?no_barrier:bool -> partitions:int -> emit:('c emitted -> unit) -> unit -> 'c t
(** [no_barrier] (default false) plants the checker's bug: cross commands
    skip the rendezvous and emit the moment they head their designated
    stream, making emission order arrival-dependent. *)

val push : 'c t -> part:int -> 'c entry -> unit
(** Append the next entry of partition [part]'s delivery stream and run
    emission to fixpoint (the [emit] upcall fires from within).

    A cross entry whose uid the stream already carried is a {e repeat} (a
    client resend, or a forwarded copy of one) and is dropped before it
    takes a sequence position, so the merge proceeds as if the stream never
    held it.  Per stream and origin the merge remembers only the highest
    seq seen, and any seq at or below it is a repeat.  That relies on each
    origin's {e first} occurrences reaching a stream in ascending seq
    order, which both uid sources keep: a [Replica] client sends each
    partition's entries of a batch as one request in rid order and its
    next batch only after the previous one completed (so after every leg
    of it was sequenced), and [Partition.submit_batch] numbers from one
    counter and sends over FIFO links.  The decision depends on the
    stream's contents alone, so every replica drops the same
    occurrences. *)

(** {2 Snapshot cut} *)

type 'c cut
(** A deep copy of everything the merge's future emissions depend on: each
    stream's queued entries, the per-stream sequence counters and repeat
    memory, the pending cross commands and the skip counts of emitted
    ones.  The whole state, not just the pending crosses: a cycle
    tie-break compares stream positions. *)

val cut : 'c t -> 'c cut
(** The merge's state now.  It is a function of the stream prefixes pushed
    so far, so it is the state every replica reaches after pushing the
    same prefixes. *)

val install : 'c t -> 'c cut -> unit
(** Replace the merge's state with a copy of the cut (the [emit] upcall
    and the diagnostic counters stay).  Emits nothing: a cut is taken
    between pushes, at an emission fixpoint.  The cut must come from a
    merge of the same partition count. *)

(** {2 Introspection} *)

val partitions : 'c t -> int

val emitted : 'c t -> int
(** Total commands emitted. *)

val crosses : 'c t -> int
(** Cross-partition commands emitted. *)

val holes : 'c t -> int
(** Cycle tie-breaks taken (sound mode); discarded foreign occurrences
    under [no_barrier]. *)

val pending : 'c t -> int
(** Entries pushed but not yet consumed (0 at quiescence on complete
    streams — a sound merge never deadlocks). *)

val pushed : 'c t -> part:int -> int
(** Per-partition sequence counter: entries pushed into stream [part],
    repeats not counted. *)

val emitted_live : 'c t -> int
(** Emitted cross-partition commands still remembered because some of
    their stream occurrences have not been consumed yet (queued, or not
    yet pushed).  Each is forgotten when its last occurrence is skipped,
    so this stays bounded by the cross commands in flight. *)

val remembered_origins : 'c t -> int
(** Repeat-memory entries held, summed over streams: one int per (stream,
    origin) pair ever seen, so the memory is bounded by the origins, not
    by the commands. *)
