(** Rendezvous of the workers involved in a cross-class write.

    Each involved worker calls {!Make.arrive} once it dequeued the
    command's token.  The designated worker's call returns [`Execute]
    once all [size] arrivals are in (it must then execute and call
    {!Make.complete}); every other call blocks until completion and
    returns [`Done].  A cross-class command that writes nothing takes no
    barrier: it runs from the dispatcher's ready queue. *)

open Psmr_platform

module Make (P : Platform_intf.S) : sig
  type t

  val create : size:int -> designated:int -> t
  (** @raise Invalid_argument when [size < 2] — a single-member plan is a
      [Direct] fast path, never a barrier. *)

  val arrive : t -> worker:int -> [ `Execute | `Done ]
  val complete : t -> unit

  (** Advisory lock-free reads, for invariants and the checker's
      class-barrier deadlock oracle. *)

  val size : t -> int
  val designated : t -> int
  val arrived : t -> int
  val completed : t -> bool
end
