(** Unbounded multi-producer multi-consumer FIFO mailbox, generic over the
    platform — the building block of the network substrate and replica
    queues. *)

module Make (P : Platform_intf.S) : sig
  type 'a t

  val create : unit -> 'a t

  val put : 'a t -> 'a -> bool
  (** Enqueue; [false] if the mailbox was closed (message dropped). *)

  val take : 'a t -> 'a option
  (** Blocking dequeue; [None] once closed and drained. *)

  val take_all : 'a t -> 'a Queue.t option
  (** Blocking bulk dequeue: wait while the mailbox is empty, then move
      every queued item, in FIFO order, into a fresh queue under one
      lock round.  [None] once closed and drained.  A receiver draining k
      queued items pays one acquisition of the mailbox's mutex instead of
      k, so a busy receiver stops contending with its producers per item. *)

  val try_take : 'a t -> 'a option
  val length : 'a t -> int

  val close : 'a t -> unit
  (** Reject further [put]s and wake blocked takers (they drain what is
      queued, then get [None]). *)

  val is_closed : 'a t -> bool
end
