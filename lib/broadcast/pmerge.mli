(** Deterministic cross-partition merge: folds the per-partition totally
    ordered delivery streams of a partitioned atomic broadcast into one
    emission sequence whose order-relevant decisions depend only on stream
    contents, never on arrival timing — so every replica derives the same
    relative order for any two commands sharing a partition.

    Protocol: single-partition commands emit at their home stream's head;
    a cross-partition command emits (once, attributed to its designated
    lowest touched partition) when it heads {e all} its touched streams —
    the rendezvous; inconsistent sequencer orders wedge the rendezvous in
    a cycle, broken — only once every wedged head is fully seen, so the
    choice depends on stream contents alone — by emitting the on-cycle
    head with the smallest [(ts, uid)], leaving holes that are skipped
    when reached.  See docs/PARTITIONING.md.

    Single-threaded by contract; pure OCaml (no platform effects). *)

type 'c entry =
  | Single of 'c
  | Cross of { uid : int; parts : int array; cmd : 'c }
      (** [parts]: ascending touched partition ids (>= 2 of them); [uid]:
          globally unique, identical in every touched stream's copy. *)

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
    emission to fixpoint (the [emit] upcall fires from within). *)

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
(** Per-partition sequence counter: entries pushed into stream [part]. *)

val emitted_live : 'c t -> int
(** Emitted cross-partition commands still remembered because some of
    their stream occurrences have not been consumed yet (queued, or not
    yet pushed).  Each is forgotten when its last occurrence is skipped,
    so this stays bounded by the cross commands in flight. *)
