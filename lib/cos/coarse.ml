(** Coarse-grained COS — the paper's Algorithm 2 and the CBASE baseline.

    One monitor (a mutex plus the [not_full] and [has_ready] conditions)
    protects the whole dependency graph, so every [insert], [get] and
    [remove] executes in mutual exclusion.  The graph is a delivery-ordered
    doubly-linked list of nodes; each node records the set of older nodes it
    still depends on ([deps_on]), so "ready" is [deps_on = \[\]].

    Operation costs mirror the paper's: [insert] scans every node for
    conflicts, [get] scans for the oldest ready node, and [remove] scans
    every node to strip the dependency edges of the node being deleted. *)

open Psmr_platform
module Probe = Psmr_obs.Probe

module Make (P : Platform_intf.S) (C : Cos_intf.COMMAND) = struct
  type cmd = C.t

  type status = Waiting | Executing | Removed

  type node = {
    cmd : cmd;
    mutable st : status;
    mutable deps_on : node list;  (* incoming edges: older conflicting nodes *)
    mutable prev : node option;
    mutable next : node option;
    mutable delivered_at : float;  (* virtual time of the insert call *)
    mutable ready_at : float;  (* virtual time all dependencies cleared *)
  }

  type handle = node

  type t = {
    mutex : P.Mutex.t;
    not_full : P.Condition.t;
    has_ready : P.Condition.t;
    max_size : int;
    mutable size : int;
    (* Sentinel-free list bounds; [first] is the oldest node. *)
    mutable first : node option;
    mutable last : node option;
    mutable closed : bool;
  }

  (* Close uses condition broadcasts, so no worker bound is needed here. *)
  let create ?(max_size = Cos_intf.default_max_size) ?worker_bound:_ () =
    if max_size <= 0 then invalid_arg "Coarse.create: max_size must be positive";
    {
      mutex = P.Mutex.create ();
      not_full = P.Condition.create ();
      has_ready = P.Condition.create ();
      max_size;
      size = 0;
      first = None;
      last = None;
      closed = false;
    }

  let command (n : handle) = n.cmd

  let iter_nodes t visits f =
    let rec go = function
      | None -> ()
      | Some n ->
          P.work Visit;
          incr visits;
          f n;
          go n.next
    in
    go t.first

  (* Insert body, to run with the monitor held.  [wait not_full] releases
     the mutex while blocked, so running several of these under one lock
     acquisition (see {!insert_batch}) cannot starve workers. *)
  let insert_locked t c ~delivered_at =
    while t.size = t.max_size && not t.closed do
      P.Condition.wait t.not_full t.mutex
    done;
    if not t.closed then begin
      P.work Alloc;
      let n =
        {
          cmd = c;
          st = Waiting;
          deps_on = [];
          prev = t.last;
          next = None;
          delivered_at;
          ready_at = 0.0;
        }
      in
      let visits = ref 0 in
      (* Collect dependencies on every older conflicting command. *)
      iter_nodes t visits (fun older ->
          P.work Conflict_check;
          if C.conflict older.cmd c then n.deps_on <- older :: n.deps_on);
      (match t.last with
      | None -> t.first <- Some n
      | Some l -> l.next <- Some n);
      t.last <- Some n;
      t.size <- t.size + 1;
      Probe.insert_done ~visits:!visits;
      if n.deps_on = [] then begin
        n.ready_at <- Probe.now ();
        Probe.ready_latency (n.ready_at -. n.delivered_at);
        P.Condition.signal t.has_ready
      end
    end

  let insert t c =
    let delivered_at = Probe.now () in
    P.Mutex.lock t.mutex;
    Probe.monitor_section ();
    insert_locked t c ~delivered_at;
    P.Mutex.unlock t.mutex

  (* One monitor round for the whole delivered batch. *)
  let insert_batch t cs =
    if Array.length cs > 0 then begin
      let delivered_at = Probe.now () in
      P.Mutex.lock t.mutex;
      Probe.monitor_section ();
      Array.iter (fun c -> insert_locked t c ~delivered_at) cs;
      P.Mutex.unlock t.mutex
    end

  let find_ready t visits =
    let rec go = function
      | None -> None
      | Some n ->
          P.work Visit;
          incr visits;
          if n.st = Waiting && n.deps_on = [] then Some n else go n.next
    in
    go t.first

  let get t =
    P.Mutex.lock t.mutex;
    Probe.monitor_section ();
    let visits = ref 0 in
    let rec await () =
      match find_ready t visits with
      | Some n ->
          n.st <- Executing;
          Probe.dispatch_latency (Probe.now () -. n.ready_at);
          Some n
      | None ->
          (* After [close], commands may still become ready as executing ones
             are removed; give up only once the graph has drained. *)
          if t.closed && t.size = 0 then None
          else begin
            P.Condition.wait t.has_ready t.mutex;
            await ()
          end
    in
    let r = await () in
    Probe.get_done ~visits:!visits;
    P.Mutex.unlock t.mutex;
    r

  let unlink t n =
    (match n.prev with None -> t.first <- n.next | Some p -> p.next <- n.next);
    (match n.next with None -> t.last <- n.prev | Some s -> s.prev <- n.prev);
    n.prev <- None;
    n.next <- None;
    t.size <- t.size - 1

  let remove t n =
    P.Mutex.lock t.mutex;
    Probe.monitor_section ();
    let visits = ref 0 in
    (* Strip the edges out of [n]; newly freed nodes become ready.  As in the
       paper, this considers every node in the graph. *)
    iter_nodes t visits (fun other ->
        if other != n && List.memq n other.deps_on then begin
          other.deps_on <- List.filter (fun d -> d != n) other.deps_on;
          if other.deps_on = [] && other.st = Waiting then begin
            other.ready_at <- Probe.now ();
            Probe.ready_latency (other.ready_at -. other.delivered_at);
            P.Condition.signal t.has_ready
          end
        end);
    unlink t n;
    n.st <- Removed;
    Probe.remove_done ~visits:!visits;
    P.Condition.signal t.not_full;
    if t.closed && t.size = 0 then P.Condition.broadcast t.has_ready;
    P.Mutex.unlock t.mutex

  (* Demote a reserved node back to waiting (dead-worker recovery).  Its
     dependency set is empty — it was when [get] promoted it, and edges are
     only ever added to nodes younger than the inserting one — so the node
     is immediately eligible for the next [get]. *)
  let requeue t n =
    P.Mutex.lock t.mutex;
    Probe.monitor_section ();
    if n.st <> Executing then begin
      P.Mutex.unlock t.mutex;
      invalid_arg "Coarse.requeue: command not reserved"
    end
    else begin
      n.st <- Waiting;
      n.ready_at <- Probe.now ();
      Probe.requeue ();
      P.Condition.signal t.has_ready;
      P.Mutex.unlock t.mutex
    end

  let close t =
    P.Mutex.lock t.mutex;
    t.closed <- true;
    P.Condition.broadcast t.has_ready;
    P.Condition.broadcast t.not_full;
    P.Mutex.unlock t.mutex

  let pending t =
    P.Mutex.lock t.mutex;
    let n = t.size in
    P.Mutex.unlock t.mutex;
    n

  (* Lock-free, read-only structural check (see {!Cos_intf.S.invariant}).
     Safe concurrently because every mutation of the list happens in one
     uninterrupted block between platform operations: at any point where
     another thread of control can observe the structure, the doubly-linked
     list is consistent and dependency edges point strictly backwards. *)
  let invariant ?(strict = false) t =
    let errs = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
    let bound = t.max_size + 2 in
    let rec collect acc n visits =
      if visits > bound then begin
        err "list longer than max_size+2 (%d): cycle suspected" bound;
        List.rev acc
      end
      else
        match n with
        | None -> List.rev acc
        | Some n -> collect (n :: acc) n.next (visits + 1)
    in
    let nodes = collect [] t.first 0 in
    (* Doubly-linked consistency. *)
    List.iter
      (fun n ->
        match n.next with
        | None -> ()
        | Some m -> (
            match m.prev with
            | Some p when p == n -> ()
            | Some _ | None -> err "next/prev mismatch"))
      nodes;
    (* Dependency edges point strictly backwards in delivery order — the
       graph is acyclic by construction; verify it. *)
    let rec check_backwards seen = function
      | [] -> ()
      | n :: rest ->
          List.iter
            (fun d ->
              if not (List.memq d seen) then
                err "dependency edge points forward or outside the list")
            n.deps_on;
          check_backwards (n :: seen) rest
    in
    check_backwards [] nodes;
    if t.size < 0 then err "negative size %d" t.size;
    if t.size > t.max_size then err "size %d exceeds max_size %d" t.size t.max_size;
    if strict then begin
      if List.length nodes <> t.size then
        err "list length %d <> size %d" (List.length nodes) t.size;
      if t.closed && t.size = 0 && t.first <> None then
        err "closed and drained but list non-empty"
    end;
    List.rev !errs
end
