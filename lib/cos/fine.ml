(** Fine-grained COS — the paper's Algorithms 3–4.

    The graph is a singly-linked list of nodes in delivery order, each with
    its own lock.  Operations traverse with hand-over-hand locking (lock
    coupling): the successor is locked before the current node is released,
    so operations cannot overtake each other while both hold list positions,
    and all locks are acquired in list order (no deadlock).  Two counting
    semaphores form the blocking layer: [space] bounds the graph, [ready]
    counts commands free to execute.

    Physical removal differs from the paper's set-based pseudocode in one
    way: the node is unlinked at the moment the removal walk passes it
    (when both the predecessor and the node are locked) rather than at the
    end of the walk — unlinking at the end would require re-locking the
    predecessor against list order.  The walk then continues from the node,
    which stays locked, stripping its outgoing dependency edges exactly as
    in Algorithm 4 lines 32–40. *)

open Psmr_platform
module Probe = Psmr_obs.Probe

module Make (P : Platform_intf.S) (C : Cos_intf.COMMAND) = struct
  type cmd = C.t

  type status = Waiting | Executing | Removed

  type node = {
    cmd : cmd option;  (* [None] only for the head sentinel *)
    mx : P.Mutex.t;
    mutable st : status;
    mutable deps_on : node list;  (* older nodes this one waits for *)
    mutable next : node option;
    mutable delivered_at : float;  (* virtual time of the insert call *)
    mutable ready_at : float;  (* virtual time all dependencies cleared *)
  }

  type handle = node

  type t = {
    head : node;  (* sentinel: lowest element of Algorithm 3 *)
    space : P.Semaphore.t;
    ready : P.Semaphore.t;
    size : int P.Atomic.t;
    closed : bool P.Atomic.t;
    close_tokens : int;
  }

  let create ?(max_size = Cos_intf.default_max_size) ?(worker_bound = 1024) ()
      =
    if max_size <= 0 then invalid_arg "Fine.create: max_size must be positive";
    if worker_bound < 0 then
      invalid_arg "Fine.create: worker_bound must be non-negative";
    let head =
      {
        cmd = None;
        mx = P.Mutex.create ();
        st = Executing;
        deps_on = [];
        next = None;
        delivered_at = 0.0;
        ready_at = 0.0;
      }
    in
    {
      head;
      space = P.Semaphore.create max_size;
      ready = P.Semaphore.create 0;
      size = P.Atomic.make 0;
      closed = P.Atomic.make false;
      (* Tokens released on [close] to wake every thread that can be
         blocked on the semaphores: up to [worker_bound] getters, plus the
         inserter waiting on up to [max_size] space tokens. *)
      close_tokens = max_size + worker_bound;
    }

  let command (n : handle) =
    match n.cmd with
    | Some c -> c
    | None -> invalid_arg "Fine.command: sentinel node"

  let insert t c =
    let delivered_at = Probe.now () in
    P.Semaphore.acquire t.space;
    if not (P.Atomic.get t.closed) then begin
      P.work Alloc;
      let n =
        {
          cmd = Some c;
          mx = P.Mutex.create ();
          st = Waiting;
          deps_on = [];
          next = None;
          delivered_at;
          ready_at = 0.0;
        }
      in
      let visits = ref 0 in
      P.Mutex.lock n.mx;
      P.Mutex.lock t.head.mx;
      (* Walk the whole list, collecting conflicts with older commands. *)
      let rec walk prev = function
        | None -> prev (* [prev] is the last node, still locked *)
        | Some cur ->
            P.Mutex.lock cur.mx;
            P.Mutex.unlock prev.mx;
            Probe.coupling_step ();
            P.work Visit;
            incr visits;
            P.work Conflict_check;
            (match cur.cmd with
            | Some older when C.conflict older c -> n.deps_on <- cur :: n.deps_on
            | Some _ | None -> ());
            walk cur cur.next
      in
      let last = walk t.head t.head.next in
      last.next <- Some n;
      ignore (P.Atomic.fetch_and_add t.size 1 : int);
      let is_ready = n.deps_on = [] in
      Probe.insert_done ~visits:!visits;
      if is_ready then begin
        n.ready_at <- Probe.now ();
        Probe.ready_latency (n.ready_at -. n.delivered_at)
      end;
      P.Mutex.unlock last.mx;
      P.Mutex.unlock n.mx;
      if is_ready then P.Semaphore.release t.ready
    end

  let insert_batch t cs = Array.iter (insert t) cs

  (* One locked traversal looking for the oldest free waiting node; returns
     it marked [Executing], or [None] if the scan finished without a hit
     (the node backing our semaphore token was freed behind the scan
     position — the caller rescans). *)
  let scan_for_ready t visits =
    P.Mutex.lock t.head.mx;
    let rec walk prev = function
      | None ->
          P.Mutex.unlock prev.mx;
          None
      | Some cur ->
          P.Mutex.lock cur.mx;
          P.Mutex.unlock prev.mx;
          Probe.coupling_step ();
          P.work Visit;
          incr visits;
          if cur.st = Waiting && cur.deps_on = [] then begin
            cur.st <- Executing;
            Probe.dispatch_latency (Probe.now () -. cur.ready_at);
            P.Mutex.unlock cur.mx;
            Some cur
          end
          else walk cur cur.next
    in
    walk t.head t.head.next

  let get t =
    P.Semaphore.acquire t.ready;
    let visits = ref 0 in
    let rec attempt () =
      match scan_for_ready t visits with
      | Some n ->
          Probe.get_done ~visits:!visits;
          Some n
      | None ->
          if P.Atomic.get t.closed && P.Atomic.get t.size = 0 then begin
            Probe.get_done ~visits:!visits;
            None
          end
          else begin
            Probe.rescan ();
            P.yield ();
            attempt ()
          end
    in
    attempt ()

  let remove t n =
    (* Phase 1: walk to [n] with lock coupling and unlink it while holding
       its predecessor. *)
    P.Mutex.lock t.head.mx;
    let visits = ref 0 in
    let rec find prev = function
      | None -> invalid_arg "Fine.remove: node not in the graph"
      | Some cur ->
          P.Mutex.lock cur.mx;
          Probe.coupling_step ();
          P.work Visit;
          incr visits;
          if cur == n then begin
            prev.next <- cur.next;
            P.Mutex.unlock prev.mx
            (* [cur] = [n] stays locked *)
          end
          else begin
            P.Mutex.unlock prev.mx;
            find cur cur.next
          end
    in
    find t.head t.head.next;
    (* Phase 2: continue from [n], stripping edges out of [n]; freed nodes
       are signalled.  [n] stays locked for the whole walk, so no operation
       overtakes the stripping. *)
    let freed = ref 0 in
    let rec strip prev = function
      | None -> if prev != n then P.Mutex.unlock prev.mx
      | Some cur ->
          P.Mutex.lock cur.mx;
          if prev != n then P.Mutex.unlock prev.mx;
          Probe.coupling_step ();
          P.work Visit;
          incr visits;
          if List.memq n cur.deps_on then begin
            cur.deps_on <- List.filter (fun d -> d != n) cur.deps_on;
            if cur.deps_on = [] && cur.st = Waiting then begin
              cur.ready_at <- Probe.now ();
              Probe.ready_latency (cur.ready_at -. cur.delivered_at);
              incr freed
            end
          end;
          strip cur cur.next
    in
    strip n n.next;
    n.st <- Removed;
    P.Mutex.unlock n.mx;
    ignore (P.Atomic.fetch_and_add t.size (-1) : int);
    Probe.remove_done ~visits:!visits;
    if !freed > 0 then P.Semaphore.release ~n:!freed t.ready;
    P.Semaphore.release t.space

  (* Demote a reserved node back to waiting (dead-worker recovery).  The
     node's dependency set is empty (it was when promoted; removes only
     strip edges), so flipping the status suffices — plus one [ready]
     token to replace the one the dead worker's [get] consumed. *)
  let requeue t n =
    P.Mutex.lock n.mx;
    if n.st <> Executing then begin
      P.Mutex.unlock n.mx;
      invalid_arg "Fine.requeue: command not reserved"
    end
    else begin
      n.st <- Waiting;
      n.ready_at <- Probe.now ();
      P.Mutex.unlock n.mx;
      Probe.requeue ();
      P.Semaphore.release t.ready
    end

  let close t =
    if not (P.Atomic.exchange t.closed true) then begin
      Probe.close_tokens (2 * t.close_tokens);
      P.Semaphore.release ~n:t.close_tokens t.ready;
      P.Semaphore.release ~n:t.close_tokens t.space
    end

  let pending t = P.Atomic.get t.size

  (* Read-only structural check (see {!Cos_intf.S.invariant}): no locks are
     taken, so an in-flight remove may have unlinked a node that still
     appears in some [deps_on] — edge closure is therefore a [strict]-only
     check, valid at quiescent points. *)
  let invariant ?(strict = false) t =
    let errs = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
    let cap = 1_000_000 in
    let rec collect acc n visits =
      if visits > cap then begin
        err "traversal exceeded %d nodes: cycle suspected" cap;
        List.rev acc
      end
      else
        match n with
        | None -> List.rev acc
        | Some n -> collect (n :: acc) n.next (visits + 1)
    in
    let nodes = collect [] t.head.next 0 in
    List.iter
      (fun n ->
        if n.cmd = None then err "sentinel node linked into the list body";
        if List.memq n n.deps_on then err "self-dependency";
        let rec dup = function
          | [] -> false
          | d :: rest -> List.memq d rest || dup rest
        in
        if dup n.deps_on then err "duplicate dependency edge")
      nodes;
    let size = P.Atomic.get t.size in
    if size < 0 then err "negative size %d" size;
    if strict then begin
      if List.length nodes <> size then
        err "list length %d <> size %d" (List.length nodes) size;
      List.iter
        (fun n ->
          List.iter
            (fun d ->
              if not (List.memq d nodes) then
                err "dependency edge to a node outside the list")
            n.deps_on)
        nodes;
      if P.Atomic.get t.closed && size = 0 && t.head.next <> None then
        err "closed and drained but list non-empty"
    end;
    List.rev !errs
end
