(** In-process message-passing network: a fixed set of endpoints with FIFO
    mailboxes, configurable per-link latency, and fault injection (crashes,
    partitions).  Platform-generic: real threads or simulated time.

    Guarantees (matching the paper's §2 model): per-link FIFO delivery, no
    duplication, no corruption; crashed endpoints neither send nor receive.
    Loss happens only through {!crash}, {!set_link_filter}, and — when a
    fault plan is armed ({!Psmr_fault}) — injected message loss,
    duplication, and extra delay decided per message at send time.

    Receiver contract: each endpoint has at most one receiving thread
    ({!recv} and {!try_recv} are called from one thread per address — a
    replica's protocol loop, a client handle, a test).  The receiver drains
    its mailbox in one lock round into a private buffer and serves later
    receives from that buffer, so k queued messages cost one acquisition of
    the mailbox's mutex, not k. *)

open Psmr_platform

module Make (P : Platform_intf.S) : sig
  type addr = int

  type 'msg envelope = { src : addr; dst : addr; payload : 'msg }

  type 'msg t

  val create :
    ?latency:(src:addr -> dst:addr -> float) -> nodes:int -> unit -> 'msg t
  (** [nodes] endpoints addressed 0..nodes-1.  [latency] (default zero)
      gives the one-way delay per message; zero delivers synchronously,
      positive delays go through the platform timer. *)

  val size : 'msg t -> int

  val send : 'msg t -> src:addr -> dst:addr -> 'msg -> unit
  (** Fire-and-forget.  Dropped silently when either side is crashed or the
      link is filtered. *)

  val broadcast : 'msg t -> src:addr -> dsts:addr list -> 'msg -> unit

  val recv : 'msg t -> addr -> 'msg envelope option
  (** Blocking receive: the next buffered message, else wait for the
      mailbox to be non-empty and move all of it into the buffer under one
      lock round.  [None] once the endpoint is crashed or the network is
      {!shutdown} and everything buffered or queued has been received. *)

  val try_recv : 'msg t -> addr -> 'msg envelope option
  (** Non-blocking receive: the next buffered message, else at most one
      message taken from the mailbox. *)

  val crash : 'msg t -> addr -> unit
  (** Silence an endpoint (crash-stop); messages from and to it are dropped
      and blocked receivers drain.  Permanent unless {!restore}d. *)

  val restore : 'msg t -> addr -> unit
  (** Bring a crashed endpoint back with a fresh, empty mailbox and
      receive buffer (crash-recovery): messages sent while it was down, and
      any buffered before the crash but not received, stay lost; new
      messages flow again.  State recovery is the endpoint's own job. *)

  val is_crashed : 'msg t -> addr -> bool

  val set_link_filter : 'msg t -> (src:addr -> dst:addr -> bool) -> unit
  (** Messages on links where the filter is [false] are dropped at send
      time (network partitions). *)

  val heal : 'msg t -> unit
  (** Remove any link filter. *)

  val shutdown : 'msg t -> unit
  (** Close every mailbox; blocked receivers drain and get [None]. *)

  val stats : 'msg t -> int * int
  (** (messages sent, messages delivered). *)

  val backlog : 'msg t -> addr -> int
  (** Messages delivered to [addr] but not yet received — queued in its
      mailbox plus held in its receive buffer: the endpoint's input-queue
      depth.  Takes the mailbox's lock; the buffer count is advisory when
      read from a thread other than the receiver's. *)
end
