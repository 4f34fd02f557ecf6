(** In-process message-passing network.

    A fixed set of endpoints (replicas and clients) exchange messages
    through per-endpoint FIFO mailboxes.  Message latency is configurable
    per (src, dst) pair — zero latency enqueues directly; positive latency
    schedules delivery through the platform timer, so on the simulated
    platform a LAN round trip costs virtual microseconds and nothing real.

    Fault injection: endpoints can be {!crash}ed (messages from and to them
    are silently dropped, as with a crashed process) and links can be cut
    with {!set_link_filter} (partitions).  Both are honoured at send time.

    Delivery guarantees match §2 of the paper: per-link FIFO, no duplication,
    no corruption; crashed endpoints stop receiving.  With zero loss and no
    crash, delivery is reliable — retransmission logic lives in the
    protocols above. *)

open Psmr_platform

module Make (P : Platform_intf.S) = struct
  module Mailbox = Mailbox.Make (P)

  type addr = int

  type 'msg envelope = { src : addr; dst : addr; payload : 'msg }

  type 'msg t = {
    inboxes : 'msg envelope Mailbox.t array;
    crashed : bool P.Atomic.t array;
    mutable latency : src:addr -> dst:addr -> float;
    mutable link_up : src:addr -> dst:addr -> bool;
    sent : int P.Atomic.t;
    delivered : int P.Atomic.t;
  }

  let create ?(latency = fun ~src:_ ~dst:_ -> 0.0) ~nodes () =
    if nodes <= 0 then invalid_arg "Network.create: nodes must be positive";
    {
      inboxes = Array.init nodes (fun _ -> Mailbox.create ());
      crashed = Array.init nodes (fun _ -> P.Atomic.make false);
      latency;
      link_up = (fun ~src:_ ~dst:_ -> true);
      sent = P.Atomic.make 0;
      delivered = P.Atomic.make 0;
    }

  let size t = Array.length t.inboxes

  let check t a =
    if a < 0 || a >= size t then
      invalid_arg (Printf.sprintf "Network: address %d out of range" a)

  let is_crashed t a =
    check t a;
    P.Atomic.get t.crashed.(a)

  let send t ~src ~dst payload =
    check t src;
    check t dst;
    ignore (P.Atomic.fetch_and_add t.sent 1 : int);
    let deliverable =
      (not (P.Atomic.get t.crashed.(src)))
      && (not (P.Atomic.get t.crashed.(dst)))
      && t.link_up ~src ~dst
    in
    if deliverable then begin
      let deliver () =
        (* Re-check the destination: it may have crashed in flight. *)
        if not (P.Atomic.get t.crashed.(dst)) then
          if Mailbox.put t.inboxes.(dst) { src; dst; payload } then
            ignore (P.Atomic.fetch_and_add t.delivered 1 : int)
      in
      let at lat = if lat <= 0.0 then deliver () else P.after lat deliver in
      (* Injected message faults, decided by the armed plan (a single
         pointer read when none is): loss, duplication, extra delay.
         Retransmission and deduplication are the protocols' job above. *)
      match Psmr_fault.Fault.net ~src ~dst with
      | Psmr_fault.Fault.Deliver -> at (t.latency ~src ~dst)
      | Psmr_fault.Fault.Drop -> P.work Fault
      | Psmr_fault.Fault.Duplicate ->
          P.work Fault;
          let lat = t.latency ~src ~dst in
          at lat;
          at lat
      | Psmr_fault.Fault.Delay d ->
          P.work Fault;
          at (t.latency ~src ~dst +. d)
    end

  let broadcast t ~src ~dsts payload =
    List.iter (fun dst -> send t ~src ~dst payload) dsts

  (* Blocks until a message arrives; [None] after the endpoint is crashed or
     the network is shut down. *)
  let recv t addr =
    check t addr;
    Mailbox.take t.inboxes.(addr)

  let try_recv t addr =
    check t addr;
    Mailbox.try_take t.inboxes.(addr)

  let crash t addr =
    check t addr;
    P.Atomic.set t.crashed.(addr) true;
    Mailbox.close t.inboxes.(addr)

  (* Bring a crashed endpoint back with a fresh (empty) mailbox: a
     recovered replica restarts from its checkpoint, not from messages
     queued at its corpse. *)
  let restore t addr =
    check t addr;
    t.inboxes.(addr) <- Mailbox.create ();
    P.Atomic.set t.crashed.(addr) false

  let set_link_filter t f = t.link_up <- f

  let heal t = t.link_up <- (fun ~src:_ ~dst:_ -> true)

  let shutdown t = Array.iter Mailbox.close t.inboxes

  let stats t = (P.Atomic.get t.sent, P.Atomic.get t.delivered)

  let backlog t addr =
    check t addr;
    Mailbox.length t.inboxes.(addr)
end
