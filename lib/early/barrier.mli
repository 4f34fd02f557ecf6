(** Rendezvous of the workers involved in a cross-class command.

    Each involved worker calls {!Make.arrive} once it dequeued the
    command's token.  An {e exclusive} barrier (the command writes): the
    designated worker's call returns [`Execute] once all [size] arrivals
    are in (it must then execute and call {!Make.complete}), every other
    call blocks until completion and returns [`Done].  A {e shared}
    barrier (the command only reads): no call blocks; the last arriver's
    call returns [`Execute] (same duty), every earlier one [`Pass]. *)

open Psmr_platform

module Make (P : Platform_intf.S) : sig
  type t

  val create : size:int -> designated:int -> t
  (** An exclusive barrier.
      @raise Invalid_argument when [size < 2] — a single-member plan is a
      [Direct] fast path, never a barrier. *)

  val create_shared : size:int -> t
  (** A shared barrier; same [size] precondition. *)

  val arrive : t -> worker:int -> [ `Execute | `Done | `Pass ]
  val complete : t -> unit

  val await : t -> unit
  (** Block until {!complete} has been called. *)

  (** Advisory lock-free reads, for invariants and the checker's
      class-barrier deadlock oracle. *)

  val size : t -> int

  val designated : t -> int option
  (** [None] for a shared barrier. *)

  val arrived : t -> int
  val completed : t -> bool
end
