(** Unbounded multi-producer multi-consumer FIFO mailbox, generic over the
    platform.  The building block of the in-process network substrate and of
    replica input queues. *)

module Make (P : Platform_intf.S) = struct
  type 'a t = {
    mutex : P.Mutex.t;
    nonempty : P.Condition.t;
    queue : 'a Queue.t;
    mutable closed : bool;
  }

  let create () =
    {
      mutex = P.Mutex.create ();
      nonempty = P.Condition.create ();
      queue = Queue.create ();
      closed = false;
    }

  let put t x =
    P.Mutex.lock t.mutex;
    let accepted = not t.closed in
    if accepted then begin
      Queue.push x t.queue;
      P.Condition.signal t.nonempty
    end;
    P.Mutex.unlock t.mutex;
    accepted

  (* Under the lock: wait until an item is queued or the mailbox is closed;
     [true] iff an item is queued. *)
  let rec await t =
    if not (Queue.is_empty t.queue) then true
    else if t.closed then false
    else begin
      P.Condition.wait t.nonempty t.mutex;
      await t
    end

  (* [take] returns [None] once the mailbox is closed and drained. *)
  let take t =
    P.Mutex.lock t.mutex;
    let r = if await t then Some (Queue.pop t.queue) else None in
    P.Mutex.unlock t.mutex;
    r

  (* [take_all] moves the whole queue out under one lock round, so a
     receiver that drains k items pays one acquisition instead of k. *)
  let take_all t =
    P.Mutex.lock t.mutex;
    let r =
      if await t then begin
        let q = Queue.create () in
        Queue.transfer t.queue q;
        Some q
      end
      else None
    in
    P.Mutex.unlock t.mutex;
    r

  let try_take t =
    P.Mutex.lock t.mutex;
    let r = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
    P.Mutex.unlock t.mutex;
    r

  let length t =
    P.Mutex.lock t.mutex;
    let n = Queue.length t.queue in
    P.Mutex.unlock t.mutex;
    n

  let close t =
    P.Mutex.lock t.mutex;
    t.closed <- true;
    P.Condition.broadcast t.nonempty;
    P.Mutex.unlock t.mutex

  let is_closed t =
    P.Mutex.lock t.mutex;
    let c = t.closed in
    P.Mutex.unlock t.mutex;
    c
end
