(** FIFO COS — the sequential-SMR baseline expressed as a COS.

    Every command behaves as if it conflicted with every other: [get]
    returns commands strictly in insertion order and only after the previous
    command has been removed, which serializes execution exactly like
    classical state machine replication regardless of how many workers are
    attached.  Implemented as a monitor around a queue with an
    in-flight flag. *)

open Psmr_platform
module Probe = Psmr_obs.Probe

module Make (P : Platform_intf.S) (C : Cos_intf.COMMAND) = struct
  type cmd = C.t

  type handle = {
    fc : cmd;
    delivered_at : float;  (* virtual time of the insert call *)
    mutable ready_at : float;  (* virtual time this command reached the head *)
  }

  type t = {
    mutex : P.Mutex.t;
    not_full : P.Condition.t;
    can_get : P.Condition.t;
    queue : handle Queue.t;
    max_size : int;
    mutable in_flight : bool;
    mutable closed : bool;
  }

  (* Close uses condition broadcasts, so no worker bound is needed here. *)
  let create ?(max_size = Cos_intf.default_max_size) ?worker_bound:_ () =
    if max_size <= 0 then invalid_arg "Fifo.create: max_size must be positive";
    {
      mutex = P.Mutex.create ();
      not_full = P.Condition.create ();
      can_get = P.Condition.create ();
      queue = Queue.create ();
      max_size;
      in_flight = false;
      closed = false;
    }

  let command (h : handle) = h.fc

  (* A command is "ready" when it sits at the queue head with nothing in
     flight; that happens either right at insert (empty, idle queue) or when
     the removal of its predecessor exposes it (see [remove]). *)
  let mark_ready (h : handle) =
    h.ready_at <- Probe.now ();
    Probe.ready_latency (h.ready_at -. h.delivered_at)

  let insert t c =
    let delivered_at = Probe.now () in
    P.Mutex.lock t.mutex;
    Probe.monitor_section ();
    while Queue.length t.queue >= t.max_size && not t.closed do
      P.Condition.wait t.not_full t.mutex
    done;
    if not t.closed then begin
      let h = { fc = c; delivered_at; ready_at = 0.0 } in
      let was_idle = Queue.is_empty t.queue && not t.in_flight in
      Queue.push h t.queue;
      Probe.insert_done ~visits:0;
      if was_idle then mark_ready h;
      if not t.in_flight then P.Condition.signal t.can_get
    end;
    P.Mutex.unlock t.mutex

  let insert_batch t cs = Array.iter (insert t) cs

  let get t =
    P.Mutex.lock t.mutex;
    Probe.monitor_section ();
    let rec await () =
      if (not t.in_flight) && not (Queue.is_empty t.queue) then begin
        t.in_flight <- true;
        let h = Queue.peek t.queue in
        Probe.dispatch_latency (Probe.now () -. h.ready_at);
        Some h
      end
      else if t.closed && Queue.is_empty t.queue && not t.in_flight then None
      else begin
        P.Condition.wait t.can_get t.mutex;
        await ()
      end
    in
    let r = await () in
    Probe.get_done ~visits:0;
    P.Mutex.unlock t.mutex;
    r

  let remove t h =
    P.Mutex.lock t.mutex;
    Probe.monitor_section ();
    (match Queue.peek_opt t.queue with
    | Some head when head == h ->
        ignore (Queue.pop t.queue : handle);
        t.in_flight <- false;
        (match Queue.peek_opt t.queue with
        | Some next -> mark_ready next
        | None -> ());
        Probe.remove_done ~visits:0;
        (* When this removal drains a closed queue there will never be
           another signal: every blocked getter must wake and observe
           [None], not just one (found by the model checker — see
           docs/CHECKING.md). *)
        if t.closed && Queue.is_empty t.queue then
          P.Condition.broadcast t.can_get
        else P.Condition.signal t.can_get;
        P.Condition.signal t.not_full
    | Some _ | None ->
        P.Mutex.unlock t.mutex;
        invalid_arg "Fifo.remove: not the in-flight command");
    P.Mutex.unlock t.mutex

  (* Put the in-flight head back up for grabs (dead-worker recovery). *)
  let requeue t h =
    P.Mutex.lock t.mutex;
    Probe.monitor_section ();
    (match Queue.peek_opt t.queue with
    | Some head when head == h && t.in_flight ->
        t.in_flight <- false;
        h.ready_at <- Probe.now ();
        Probe.requeue ();
        P.Condition.signal t.can_get
    | Some _ | None ->
        P.Mutex.unlock t.mutex;
        invalid_arg "Fifo.requeue: not the in-flight command");
    P.Mutex.unlock t.mutex

  let close t =
    P.Mutex.lock t.mutex;
    t.closed <- true;
    P.Condition.broadcast t.can_get;
    P.Condition.broadcast t.not_full;
    P.Mutex.unlock t.mutex

  let pending t =
    P.Mutex.lock t.mutex;
    let n = Queue.length t.queue in
    P.Mutex.unlock t.mutex;
    n

  (* Read-only structural check (see {!Cos_intf.S.invariant}).  All queue
     mutations happen in one uninterrupted block inside the monitor, so the
     bounds below hold at any observable instant. *)
  let invariant ?(strict = false) t =
    let errs = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
    let len = Queue.length t.queue in
    if len > t.max_size then err "queue length %d exceeds max_size %d" len t.max_size;
    if t.in_flight && len = 0 then err "in-flight command but empty queue";
    if strict then
      if t.closed && len = 0 && t.in_flight then
        err "closed and drained but still in flight";
    List.rev !errs
end
