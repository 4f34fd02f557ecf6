(** Striped (segment-locked) COS — a point on the "lock granularity
    spectrum" the paper's §7.3.2 suggests exploring between the
    coarse-grained monitor (one lock for the whole graph) and the
    fine-grained list (one lock per node).

    Nodes are stored, in delivery order, in fixed-capacity segments; each
    segment has its own lock.  Traversals use hand-over-hand locking at
    segment granularity: the next segment is locked before the current one
    is released, so operations cannot overtake each other, and locks are
    always taken in list order (no deadlock).  With [segment_capacity = 1]
    this degenerates to the fine-grained algorithm; with one huge segment,
    to the coarse-grained one.

    Removal marks a node as a tombstone inside its segment; a segment is
    physically unlinked when all its slots are dead, which keeps traversals
    short without the per-node unlink gymnastics of the fine-grained
    variant. *)

open Psmr_platform
module Probe = Psmr_obs.Probe

module Make_sized (Size : sig
  val segment_capacity : int
end)
(P : Platform_intf.S)
(C : Cos_intf.COMMAND) =
struct
  type cmd = C.t

  type status = Waiting | Executing | Removed

  type node = {
    cmd : cmd;
    mutable st : status;
    mutable deps_on : node list;  (* live older nodes this one waits for *)
    segment : segment;
    mutable delivered_at : float;  (* virtual time of the insert call *)
    mutable ready_at : float;  (* virtual time all dependencies cleared *)
  }

  and segment = {
    mx : P.Mutex.t;
    slots : node option array;
    mutable used : int;  (* slots filled so far *)
    mutable dead : int;  (* slots whose node is Removed *)
    mutable next : segment option;
  }

  type handle = node

  type t = {
    head : segment;  (* sentinel segment, never holds nodes *)
    space : P.Semaphore.t;
    ready : P.Semaphore.t;
    size : int P.Atomic.t;
    closed : bool P.Atomic.t;
    close_tokens : int;
  }

  let capacity =
    if Size.segment_capacity <= 0 then
      invalid_arg "Striped: segment_capacity must be positive"
    else Size.segment_capacity

  let new_segment () =
    {
      mx = P.Mutex.create ();
      slots = Array.make capacity None;
      used = 0;
      dead = 0;
      next = None;
    }

  let create ?(max_size = Cos_intf.default_max_size) ?(worker_bound = 1024) ()
      =
    if max_size <= 0 then invalid_arg "Striped.create: max_size must be positive";
    if worker_bound < 0 then
      invalid_arg "Striped.create: worker_bound must be non-negative";
    let head = new_segment () in
    (* The sentinel is permanently "full and dead" so nothing is stored in
       it but it is never unlinked. *)
    head.used <- capacity;
    head.dead <- capacity;
    {
      head;
      space = P.Semaphore.create max_size;
      ready = P.Semaphore.create 0;
      size = P.Atomic.make 0;
      closed = P.Atomic.make false;
      (* [close] must wake every blocked getter (bounded by
         [worker_bound]) and the inserter (waiting on up to [max_size]
         space tokens). *)
      close_tokens = max_size + worker_bound;
    }

  let command (n : handle) = n.cmd

  (* Iterate the live nodes of a locked segment. *)
  let iter_live seg visits f =
    for i = 0 to seg.used - 1 do
      match seg.slots.(i) with
      | Some n when n.st <> Removed ->
          P.work Visit;
          incr visits;
          f n
      | Some _ | None -> ()
    done

  (* Unlink fully-dead segments that directly follow [seg] (which is
     locked); they can no longer be reached by anyone behind us. *)
  let reap_after seg =
    let rec reap () =
      match seg.next with
      | Some s when s.used = capacity && s.dead = capacity ->
          P.Mutex.lock s.mx;
          seg.next <- s.next;
          P.Mutex.unlock s.mx;
          reap ()
      | Some _ | None -> ()
    in
    reap ()

  let insert t c =
    let delivered_at = Probe.now () in
    P.Semaphore.acquire t.space;
    if not (P.Atomic.get t.closed) then begin
      P.work Alloc;
      let visits = ref 0 in
      (* The node's segment is fixed once we reach the tail. *)
      let rec walk prev deps =
        reap_after prev;
        match prev.next with
        | Some seg ->
            P.Mutex.lock seg.mx;
            P.Mutex.unlock prev.mx;
            Probe.monitor_section ();
            let deps = ref deps in
            iter_live seg visits (fun older ->
                P.work Conflict_check;
                if C.conflict older.cmd c then deps := older :: !deps);
            walk seg !deps
        | None ->
            (* [prev] is the last segment, still locked. *)
            let seg =
              if prev != t.head && prev.used < capacity then prev
              else begin
                let s = new_segment () in
                prev.next <- Some s;
                P.Mutex.lock s.mx;
                P.Mutex.unlock prev.mx;
                s
              end
            in
            let n =
              {
                cmd = c;
                st = Waiting;
                deps_on = deps;
                segment = seg;
                delivered_at;
                ready_at = 0.0;
              }
            in
            seg.slots.(seg.used) <- Some n;
            seg.used <- seg.used + 1;
            let is_ready = n.deps_on = [] in
            Probe.insert_done ~visits:!visits;
            if is_ready then begin
              n.ready_at <- Probe.now ();
              Probe.ready_latency (n.ready_at -. n.delivered_at)
            end;
            (* Count the node before it becomes visible (the unlock): a
               remover that frees it through edge stripping may run its
               whole get/remove cycle before this insert resumes, and the
               decrement must never land before the increment. *)
            ignore (P.Atomic.fetch_and_add t.size 1 : int);
            P.Mutex.unlock seg.mx;
            if is_ready then P.Semaphore.release t.ready
      in
      P.Mutex.lock t.head.mx;
      walk t.head []
    end

  let insert_batch t cs = Array.iter (insert t) cs

  (* Scan for the oldest free waiting node; [None] if the backing node was
     taken behind the scan position (caller rescans). *)
  let scan_for_ready t visits =
    let found = ref None in
    let rec walk prev =
      reap_after prev;
      match prev.next with
      | None -> P.Mutex.unlock prev.mx
      | Some seg ->
          P.Mutex.lock seg.mx;
          P.Mutex.unlock prev.mx;
          Probe.monitor_section ();
          (try
             iter_live seg visits (fun n ->
                 if n.st = Waiting && n.deps_on = [] then begin
                   n.st <- Executing;
                   Probe.dispatch_latency (Probe.now () -. n.ready_at);
                   found := Some n;
                   raise Exit
                 end)
           with Exit -> ());
          if !found = None then walk seg else P.Mutex.unlock seg.mx
    in
    P.Mutex.lock t.head.mx;
    walk t.head;
    !found

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
    (* Mark the tombstone inside its own segment, then strip dependency
       edges from every later (and same-segment) node, walking segments
       hand-over-hand from the start — conservative but ordered, hence
       deadlock-free. *)
    let freed = ref 0 in
    let visits = ref 0 in
    let strip_in seg =
      iter_live seg visits (fun other ->
          if List.memq n other.deps_on then begin
            other.deps_on <- List.filter (fun d -> d != n) other.deps_on;
            if other.deps_on = [] && other.st = Waiting then begin
              other.ready_at <- Probe.now ();
              Probe.ready_latency (other.ready_at -. other.delivered_at);
              incr freed
            end
          end)
    in
    let rec walk prev ~marked =
      reap_after prev;
      match prev.next with
      | None -> P.Mutex.unlock prev.mx
      | Some seg ->
          P.Mutex.lock seg.mx;
          P.Mutex.unlock prev.mx;
          Probe.monitor_section ();
          let marked =
            if (not marked) && seg == n.segment then begin
              n.st <- Removed;
              seg.dead <- seg.dead + 1;
              true
            end
            else marked
          in
          if marked then strip_in seg;
          walk seg ~marked
    in
    P.Mutex.lock t.head.mx;
    walk t.head ~marked:false;
    ignore (P.Atomic.fetch_and_add t.size (-1) : int);
    Probe.remove_done ~visits:!visits;
    if !freed > 0 then P.Semaphore.release ~n:!freed t.ready;
    P.Semaphore.release t.space

  (* Demote a reserved node back to waiting (dead-worker recovery).  One
     segment lock orders the status flip against traversals; a single lock
     acquisition cannot deadlock against the ordered hand-over-hand
     chains.  One [ready] token replaces the one the dead worker's [get]
     consumed. *)
  let requeue t n =
    P.Mutex.lock n.segment.mx;
    Probe.monitor_section ();
    if n.st <> Executing then begin
      P.Mutex.unlock n.segment.mx;
      invalid_arg "Striped.requeue: command not reserved"
    end
    else begin
      n.st <- Waiting;
      n.ready_at <- Probe.now ();
      P.Mutex.unlock n.segment.mx;
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

  (* Read-only structural check (see {!Cos_intf.S.invariant}).  Tombstone
     marking and the [dead] counter are updated in one uninterrupted block,
     so slot accounting is checkable at any instant; edge closure is
     [strict]-only (an in-flight remove strips edges segment by segment). *)
  let invariant ?(strict = false) t =
    let errs = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
    let cap = 100_000 in
    let rec collect acc s visits =
      if visits > cap then begin
        err "segment chain exceeded %d segments: cycle suspected" cap;
        List.rev acc
      end
      else
        match s with
        | None -> List.rev acc
        | Some s -> collect (s :: acc) s.next (visits + 1)
    in
    let segments = collect [] t.head.next 0 in
    List.iter
      (fun s ->
        if s.used < 0 || s.used > capacity then
          err "segment used %d outside [0,%d]" s.used capacity;
        if s.dead < 0 || s.dead > s.used then
          err "segment dead %d outside [0,used=%d]" s.dead s.used;
        let tombstones = ref 0 in
        for i = 0 to Array.length s.slots - 1 do
          match s.slots.(i) with
          | Some n ->
              if i >= s.used then err "slot %d populated beyond used=%d" i s.used;
              if n.segment != s then err "node stored in a foreign segment";
              if n.st = Removed then incr tombstones
          | None -> if i < s.used then err "empty slot %d below used=%d" i s.used
        done;
        if !tombstones <> s.dead then
          err "segment dead=%d but %d tombstones" s.dead !tombstones)
      segments;
    let size = P.Atomic.get t.size in
    if size < 0 then err "negative size %d" size;
    if strict then begin
      let live =
        List.fold_left
          (fun acc s -> acc + (s.used - s.dead))
          0 segments
      in
      if live <> size then err "live slot count %d <> size %d" live size;
      List.iter
        (fun s ->
          for i = 0 to s.used - 1 do
            match s.slots.(i) with
            | Some n when n.st <> Removed ->
                List.iter
                  (fun d ->
                    if d.st = Removed then
                      err "dependency edge to a removed node at quiescence")
                  n.deps_on
            | Some _ | None -> ()
          done)
        segments
    end;
    List.rev !errs
end

(** The default stripe width: 16 nodes per lock, a mid-point of the
    granularity spectrum. *)
module Make (P : Platform_intf.S) (C : Cos_intf.COMMAND) =
  Make_sized
    (struct
      let segment_capacity = 16
    end)
    (P)
    (C)
