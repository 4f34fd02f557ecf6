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
    protocols above.

    Each endpoint has one receiving thread.  It drains its mailbox in bulk
    into a private buffer and serves later receives from that buffer, so a
    busy receiver takes the mailbox's lock once per burst instead of once
    per message and stops convoying with the processes that deliver to it. *)

open Psmr_platform

module Make (P : Platform_intf.S) = struct
  module Mailbox = Mailbox.Make (P)

  type addr = int

  type 'msg envelope = { src : addr; dst : addr; payload : 'msg }

  (* [buf] holds what the last [Mailbox.take_all] moved out and the
     receiver has not yet consumed; only the receiving thread touches it. *)
  type 'msg endpoint = {
    box : 'msg envelope Mailbox.t;
    buf : 'msg envelope Queue.t;
  }

  type 'msg t = {
    inboxes : 'msg endpoint array;
    crashed : bool P.Atomic.t array;
    mutable latency : src:addr -> dst:addr -> float;
    mutable link_up : src:addr -> dst:addr -> bool;
    sent : int P.Atomic.t;
    delivered : int P.Atomic.t;
  }

  let endpoint () = { box = Mailbox.create (); buf = Queue.create () }

  let create ?(latency = fun ~src:_ ~dst:_ -> 0.0) ~nodes () =
    if nodes <= 0 then invalid_arg "Network.create: nodes must be positive";
    {
      inboxes = Array.init nodes (fun _ -> endpoint ());
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
          if Mailbox.put t.inboxes.(dst).box { src; dst; payload } then
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
     the network is shut down (and everything buffered or queued has been
     received). *)
  let recv t addr =
    check t addr;
    let ep = t.inboxes.(addr) in
    if Queue.is_empty ep.buf then
      Option.iter (fun q -> Queue.transfer q ep.buf) (Mailbox.take_all ep.box);
    Queue.take_opt ep.buf

  let try_recv t addr =
    check t addr;
    let ep = t.inboxes.(addr) in
    if Queue.is_empty ep.buf then Mailbox.try_take ep.box
    else Queue.take_opt ep.buf

  let crash t addr =
    check t addr;
    P.Atomic.set t.crashed.(addr) true;
    Mailbox.close t.inboxes.(addr).box

  (* Bring a crashed endpoint back with a fresh (empty) mailbox and buffer:
     a recovered replica restarts from its checkpoint, not from messages
     queued or buffered at its corpse. *)
  let restore t addr =
    check t addr;
    t.inboxes.(addr) <- endpoint ();
    P.Atomic.set t.crashed.(addr) false

  let set_link_filter t f = t.link_up <- f

  let heal t = t.link_up <- (fun ~src:_ ~dst:_ -> true)

  let shutdown t = Array.iter (fun ep -> Mailbox.close ep.box) t.inboxes

  let stats t = (P.Atomic.get t.sent, P.Atomic.get t.delivered)

  let backlog t addr =
    check t addr;
    let ep = t.inboxes.(addr) in
    let queued = Mailbox.length ep.box in
    queued + Queue.length ep.buf
end
