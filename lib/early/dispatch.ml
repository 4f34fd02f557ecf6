(* The early-scheduling execution runtime: one FIFO of tokens per worker,
   a static class map deciding at submit time which queues a command
   touches, a rendezvous barrier for cross-class writes, and one shared
   ready queue for cross-class reads.

   Shared reads.  A cross-class command whose footprint writes nothing
   conflicts only with writes, and every write to a key it reads has a
   token in the queue that represents the key's class in its plan (the
   class map gives a write every member of the key's class).  So the
   read takes no token.  It is one entry that waits for the writes ahead
   of it and that the writes behind it wait for.  The submit thread, the
   only thread that registers entries, keeps per queue the newest
   confirmed write ([q_last_write]) and the shared reads registered there
   that may still run ([q_readers]).  A read waits for the newest
   confirmed write of each of its queues, unless that write is complete:
   a queue passes its tokens in order, so that write's completion implies
   every earlier one's.  A write waits for every read registered in one
   of its queues at a smaller position.  Waiting is counted: [e_deps]
   counts the entries an entry still waits for, each of which holds it in
   its waiter list ([e_state]) and releases it on completion.  A read
   whose count reaches zero goes on the ready queue, which any worker
   with nothing runnable in its own queue drains.  A write with a nonzero
   count is held at the head of its executor's queue (the write gate),
   and that worker drains the ready queue while it waits.  Writes keep
   their tokens and the exclusive barrier, and always run on the
   designated worker.

   Deadlock freedom follows from position order.  The incomplete command
   with the smallest position waits on nothing.  If it writes, every
   member token is at the front of its queue and its gate is open, so it
   runs.  If it reads, it is on the ready queue.  No worker parks, or
   holds at a gate, while a ready read is unclaimed: a push wakes a
   parked worker, and a worker about to park takes a ready read instead.
   The only other place a worker blocks is the barrier of a write, whose
   designated worker is running it, arriving, or gated — and a gated
   worker drains the ready queue.

   Token life cycle.  A token is [Pending] (optimistically enqueued, not
   yet confirmed by final delivery), [Confirmed] (executable once it
   reaches the head of its queue), [Taken] (a pending single-queue token
   popped by its worker for speculative execution) or [Revoked] (pulled
   out by the repair path; workers skip it).  Conservative submissions
   append [Confirmed] tokens directly; optimistic submissions append
   [Pending] ones and a later {!confirm} commits them.  An optimistic
   shared read registers as a reader at once, so the writes behind it
   wait for it, but it waits for nothing, and is not ready, until its
   confirmation: by then every speculation positioned ahead of it that
   shares a queue has been repaired behind it, so it waits on confirmed
   writes only.

   Ordering argument.  The submit thread is the only thread that appends,
   confirms or revokes, and it processes final deliveries in final order,
   so confirmation order = final delivery order.  Every entry carries a
   monotone position [e_pos] assigned at (re-)append time, so per queue
   the token order is ascending [e_pos] order.  Unconfirmed speculations
   additionally sit in a submit-thread-private FIFO in the same order.
   When a command is confirmed (or conservatively submitted), any
   unconfirmed speculation with a smaller position that shares one of its
   queues (a shared read's queues are its classes' representatives)
   belongs to a command whose confirmation — hence final position — comes
   later, so that command is mis-speculated.  Detecting this costs one
   FIFO head comparison on the fast path (the confirmation arrives in
   speculated order) and never touches a queue lock; no per-queue scan is
   needed because position order and queue order coincide.

   Execution-time optimism.  When a [speculate] hook is installed, a
   worker reaching a [Pending] single-queue token does not wait for the
   confirmation: it pops the token and executes the command through the
   hook, which returns an undo closure; the pair is pushed on the queue's
   undo log.  A clean confirmation then merely commits the already-done
   work (pop the log, count it executed).  A mis-speculated confirmation
   rolls back: the affected queues are quiesced (a gate stops new
   speculative pops; the submit thread waits out the one possibly running
   execution), the undo log suffix from the earliest victim onward is
   undone newest-first, non-victim collateral entries are re-inserted at
   the queue front in their original order (to be re-executed against the
   repaired state), and the victims are revoked and re-appended at the
   tail as fresh speculations.  Cross-class commands never execute
   speculatively — a write's barrier would entangle other queues in the
   rollback, and a read waits for committed writes — so a rollback is
   always confined to single-queue entries, and an undo log never holds a
   command that conflicts with another queue's contents (conflicting
   commands share a queue).

   The workers are a [Psmr_sched.Pool], like the COS scheduler's: a crash
   pushes the fetched token back at the {e front} of its queue (order
   intact; a speculative pop is restored to [Pending]), or a ready read
   back at the front of the ready queue, for any worker to take.  A
   crash-stop of a worker involved in a write's rendezvous leaves that
   command unable to complete — the class-barrier deadlock the checker's
   oracle looks for — while a respawned worker re-pops the token and
   drains it. *)

open Psmr_platform
module Probe = Psmr_obs.Probe

module Make (P : Platform_intf.S) (C : Psmr_cos.Cos_intf.KEYED_COMMAND) =
struct
  module Pool = Psmr_sched.Pool.Make (P)
  module B = Barrier.Make (P)

  type cmd = C.t

  type tstate = Pending | Confirmed | Revoked | Taken

  type entry = {
    e_cmd : C.t;
    e_barrier : B.t option;  (* a cross-class write's rendezvous *)
    e_queues : queue array;
        (* member queues, the executor first; a shared read's hold no
           token of it *)
    e_shared : bool;  (* a cross-class read: no token, runs once ready *)
    e_writes : bool;  (* the footprint writes *)
    e_spec : bool;  (* entered through [submit_optimistic] *)
    e_enq_at : float;  (* virtual enqueue time (0 while probes are off) *)
    mutable e_pos : int;  (* queue position; submit thread writes *)
    mutable e_tokens : token array;  (* live token per member queue *)
    mutable e_confirmed : bool;  (* submit-thread double-confirm guard *)
    mutable e_victim : bool;  (* transient mark inside one repair *)
    mutable e_commit_wanted : bool;
        (* the confirmation raced a running speculative execution; the
           worker commits at log-push time.  Protected by the queue lock. *)
    mutable e_runs : int;  (* executions so far; serialized by queue order *)
    mutable e_gated : bool;
        (* a write registered behind a shared read: its executor reads
           [e_deps] before popping it.  Set before the tokens are
           appended. *)
    mutable e_finished : bool;
        (* hint that [e_state] is [Done], for the submit thread's pruning;
           read without synchronization, so only a [true] is trusted *)
    e_state : state P.Atomic.t;
    e_deps : int P.Atomic.t;
        (* entries this one still waits for, plus a shared read's hold
           until it is registered and confirmed *)
    e_claim : int P.Atomic.t;
        (* speculative-log claim: 0 = no undo record logged, 1 = the
           worker logged one (set under the queue lock, after the push),
           3 = a confirmation claimed the logged record and committed
           without the lock.  The 1 -> 3 transition is the confirm fast
           path; a rollback resets undone entries to 0. *)
  }

  and state =
    | Live
    | Waited of entry list  (* entries waiting for this one, newest first *)
    | Done  (* committed or dropped; window released *)

  and token = { t_entry : entry; t_queue : queue; mutable t_state : tstate }

  and queue = {
    q_worker : int;
    q_m : P.Mutex.t;
    q_cv : P.Condition.t;
    mutable q_front : token list;  (* oldest first *)
    mutable q_back : token list;  (* newest first *)
    mutable q_pending : int;  (* pending tokens currently queued *)
    mutable q_closed : bool;
    (* Speculative-execution state, all protected by [q_m]. *)
    mutable q_busy : bool;  (* worker inside a speculative execution *)
    mutable q_gate : bool;  (* a rollback is quiescing this queue *)
    mutable q_log_front : (entry * (unit -> unit)) list;  (* oldest first *)
    mutable q_log_back : (entry * (unit -> unit)) list;  (* newest first *)
    mutable q_parked : bool;
        (* parked with nothing runnable while shared reads are on: a ready
           push may wake it.  Written under [q_m]; pushers read it as a
           hint and re-check it under the lock. *)
    (* Class bookkeeping, private to the submit thread. *)
    mutable q_last_write : entry option;  (* newest confirmed write here *)
    mutable q_readers : entry list;  (* shared reads that may still run *)
    mutable q_nreaders : int;
    mutable q_readers_cap : int;  (* prune completed readers beyond this *)
  }

  type spec = entry

  type t = {
    map : Class_map.t;
    queues : queue array;
    window : P.Semaphore.t;  (* in-flight bound, like the COS max_size *)
    repair : bool;
    write_gate : bool;  (* [false] only in the checker's planted variant *)
    read_gate : bool;  (* [false] only in the checker's planted variant *)
    execute : C.t -> unit;
    speculate : (C.t -> unit -> unit) option;
        (* execute through the undo capability; [None] = dispatch-only
           optimism (pending tokens wait for their confirmation) *)
    on_commit : (C.t -> unit) option;
    pool : Pool.t;
    dropped : int P.Atomic.t;
    spec_execs : int P.Atomic.t;  (* speculative executions (workers) *)
    redos : int P.Atomic.t;  (* re-executions after a rollback *)
    redo_depth : int P.Atomic.t;  (* max executions of a single command *)
    wmax : int;  (* the window bound, for chunked reservation *)
    ready : entry list P.Atomic.t;  (* ready shared reads, newest first *)
    mutable reads_on : bool;
        (* a shared read was ever submitted: workers about to park look at
           the ready queue first.  Off, the worker loop is the token loop
           alone. *)
    (* Submit-thread state: the submit thread is the only writer, so these
       are plain mutables.  [spec_out] counts optimistic submissions not
       yet confirmed; [fifo_front]/[fifo_back] hold exactly those entries
       in ascending [e_pos] order.  [credit] is the number of window slots
       already acquired but not yet spent. *)
    mutable spec_out : int;
    mutable credit : int;
    mutable pos_ctr : int;
    mutable fifo_front : entry list;  (* oldest first *)
    mutable fifo_back : entry list;  (* newest first *)
    (* Submit-thread statistics; exact after shutdown, advisory before. *)
    mutable n_direct : int;
    mutable n_rendezvous : int;
    mutable n_repairs : int;
    mutable n_revoked : int;
    mutable n_undone : int;  (* executed commands rolled back by repairs *)
  }

  let rec bump_max a v =
    let cur = P.Atomic.get a in
    if v > cur && not (P.Atomic.compare_and_set a cur v) then bump_max a v

  (* ---------------------------------------------------------------- *)
  (* Queue primitives.                                                 *)

  (* Append [toks], newest first (the orientation of [q_back]), under one
     lock round.  The queue's single consumer waits on [q_cv] in exactly
     two states: nothing runnable at the head (queue empty, head pending
     or gated), woken by appends to an empty queue, confirm/revoke/close
     broadcasts, an opened gate or a ready push.  So an append only needs
     to signal when it makes the queue non-empty. *)
  let q_append_all q toks =
    P.Mutex.lock q.q_m;
    let was_empty = q.q_front = [] && q.q_back = [] in
    q.q_back <- toks @ q.q_back;
    List.iter
      (fun tok -> if tok.t_state = Pending then q.q_pending <- q.q_pending + 1)
      toks;
    if was_empty then P.Condition.signal q.q_cv;
    P.Mutex.unlock q.q_m

  let q_append q tok = q_append_all q [ tok ]

  (* Move a pending token to [st] (confirmed or revoked), under [q_m]; the
     broadcast wakes a consumer waiting on the pending head. *)
  let q_settle q tok st =
    tok.t_state <- st;
    q.q_pending <- q.q_pending - 1;
    P.Condition.broadcast q.q_cv

  (* Crash requeue: the reservation goes back where it came from.  A
     speculative pop is normally restored to [Pending] — but if the
     entry's confirmation landed while the token was in flight (confirm
     saw [Taken], failed the claim CAS and parked [e_commit_wanted] for
     a worker that then died), reviving it [Pending] would park it ahead
     of already-[Confirmed] tokens, breaking the queue's order
     invariant.  [e_confirmed] is set before confirm touches [q_m], and
     we hold [q_m] here, so the read is stable: revive such tokens
     [Confirmed] and let the next consumer run them to commit.  The
     broadcast also wakes a rollback waiting out [q_busy]. *)
  let q_push_front q tok =
    P.Mutex.lock q.q_m;
    if tok.t_state = Taken then begin
      if tok.t_entry.e_confirmed then tok.t_state <- Confirmed
      else begin
        tok.t_state <- Pending;
        q.q_pending <- q.q_pending + 1
      end;
      q.q_busy <- false
    end;
    q.q_front <- tok :: q.q_front;
    P.Condition.broadcast q.q_cv;
    P.Mutex.unlock q.q_m

  let is_done e =
    match P.Atomic.get e.e_state with Done -> true | Live | Waited _ -> false

  (* Drop already-committed records off the log front (with the queue
     lock held).  The confirm fast path commits a logged entry without
     the lock and leaves its record behind; the worker reclaims those
     here at its next log push. *)
  let rec log_prune q =
    match q.q_log_front with
    | (en, _) :: rest when is_done en ->
        q.q_log_front <- rest;
        log_prune q
    | [] when q.q_log_back <> [] ->
        q.q_log_front <- List.rev q.q_log_back;
        q.q_log_back <- [];
        log_prune q
    | _ -> ()

  (* ---------------------------------------------------------------- *)
  (* The ready queue and waiting.                                      *)

  (* Wake up to [n] parked workers: each whose parked hint is set and,
     under its lock, still is.  Such a worker is inside [q_next]'s park —
     the only waiter on [q_cv] then, since rollback and close wait only on
     a busy worker — so one signal wakes it; clearing its hint tells it
     why it woke and keeps a second pusher off it. *)
  let wake_parked t n =
    let n = ref n in
    Array.iter
      (fun q ->
        if !n > 0 && q.q_parked then begin
          P.Mutex.lock q.q_m;
          if q.q_parked then begin
            q.q_parked <- false;
            P.Condition.signal q.q_cv;
            decr n
          end;
          P.Mutex.unlock q.q_m
        end)
      t.queues

  let rec cas_update cell cur f =
    if not (P.Atomic.compare_and_set cell cur (f cur)) then
      cas_update cell (P.Atomic.get cell) f

  (* Push the ready reads [es] (oldest first) with one CAS, then wake a
     parked worker per read.  A worker raises its parked hint before it
     looks at the ready queue, and the look ends with a write to it (a
     CAS even when empty), so either it sees these reads or this push
     sees its hint. *)
  let push_ready t es =
    cas_update t.ready [] (List.rev_append es);
    wake_parked t (List.length es)

  (* Take the oldest ready read. *)
  let rec take_ready t =
    let l = P.Atomic.get t.ready in
    match List.rev l with
    | [] -> if P.Atomic.compare_and_set t.ready l [] then None else take_ready t
    | e :: older ->
        if P.Atomic.compare_and_set t.ready l (List.rev older) then Some e
        else take_ready t

  (* Crash requeue of a ready read: first in line again. *)
  let ready_push_front t e =
    cas_update t.ready (P.Atomic.get t.ready) (fun cur -> cur @ [ e ]);
    wake_parked t 1

  (* [true] when releasing [n] waits takes [e]'s count to zero. *)
  let release e n = P.Atomic.fetch_and_add e.e_deps (-n) = n

  (* [e] waits for nothing any more: a read is ready, a write's gate is
     open (its executor may be parked on it). *)
  let on_ready t e =
    if e.e_shared then push_ready t [ e ]
    else begin
      let q = e.e_queues.(0) in
      P.Mutex.lock q.q_m;
      P.Condition.broadcast q.q_cv;
      P.Mutex.unlock q.q_m
    end

  let release_all t ws =
    List.iter (fun w -> if release w 1 then on_ready t w) (List.rev ws)

  (* Terminal transition: [true] for the one caller that takes [e] to
     [Done]; the waiters it held are released.  With no waiter ever
     registered this is one CAS. *)
  let finish t e =
    let rec slow () =
      match P.Atomic.get e.e_state with
      | Done -> false
      | Live -> P.Atomic.compare_and_set e.e_state Live Done || slow ()
      | Waited ws as s ->
          if P.Atomic.compare_and_set e.e_state s Done then begin
            release_all t ws;
            true
          end
          else slow ()
    in
    let won = P.Atomic.compare_and_set e.e_state Live Done || slow () in
    if won then e.e_finished <- true;
    won

  let drop t e =
    if finish t e then begin
      ignore (P.Atomic.fetch_and_add t.dropped 1 : int);
      P.Semaphore.release t.window
    end

  (* Terminal success: exactly one of [commit]/[drop] fires per entry. *)
  let commit t e =
    if finish t e then begin
      Pool.count_executed t.pool;
      (match t.on_commit with Some f -> f e.e_cmd | None -> ());
      P.Semaphore.release t.window
    end

  (* Put [x] in [p]'s waiter list; [false] when [p] is already done. *)
  let rec wait_on p x =
    match P.Atomic.get p.e_state with
    | Done -> false
    | Live as s ->
        P.Atomic.compare_and_set p.e_state s (Waited [ x ]) || wait_on p x
    | Waited ws as s ->
        P.Atomic.compare_and_set p.e_state s (Waited (x :: ws)) || wait_on p x

  (* Make [x] wait for the candidates [ps]: its count is raised by their
     number first, so no completion can take it to zero midway.  Returns
     how many were already done, for the caller to release. *)
  let join x ps =
    ignore (P.Atomic.fetch_and_add x.e_deps (List.length ps) : int);
    List.fold_left
      (fun missed p -> if wait_on p x then missed else missed + 1)
      0 ps

  (* ---------------------------------------------------------------- *)
  (* Submit-side: planning, registration, enqueueing, confirmation and  *)
  (* repair.                                                           *)

  let next_pos t =
    t.pos_ctr <- t.pos_ctr + 1;
    t.pos_ctr

  (* The first shared read turns on the workers' ready-queue look.  A
     worker may be parked from before, so each queue is woken once. *)
  let reads_on t =
    if not t.reads_on then begin
      t.reads_on <- true;
      Array.iter
        (fun q ->
          P.Mutex.lock q.q_m;
          P.Condition.broadcast q.q_cv;
          P.Mutex.unlock q.q_m)
        t.queues
    end

  let make_entry t c ~spec ~state =
    let fp = C.footprint c in
    let plan =
      List.iter (fun _ -> P.work Hash) fp;
      Class_map.plan t.map fp
    in
    let member_ids =
      match plan with
      | Class_map.Direct { worker } -> [| worker |]
      | Class_map.Rendezvous { members; _ } -> members
    in
    let writes = List.exists snd fp in
    let shared =
      match plan with Class_map.Direct _ -> false | Rendezvous _ -> not writes
    in
    let barrier =
      match plan with
      | Class_map.Rendezvous { members; designated } when writes ->
          P.work Alloc;
          Some (B.create ~size:(Array.length members) ~designated)
      | Class_map.Direct _ | Class_map.Rendezvous _ -> None
    in
    if shared then begin
      reads_on t;
      P.work Alloc
    end;
    let e =
      {
        e_cmd = c;
        e_barrier = barrier;
        (* ascending ids: a rendezvous's designated worker comes first *)
        e_queues = Array.map (fun id -> t.queues.(id - 1)) member_ids;
        e_shared = shared;
        e_writes = writes;
        e_spec = spec;
        e_enq_at = Probe.now ();
        e_pos = next_pos t;
        e_tokens = [||];
        e_confirmed = false;
        e_victim = false;
        e_commit_wanted = false;
        e_runs = 0;
        e_gated = false;
        e_finished = false;
        e_state = P.Atomic.make Live;
        e_deps = P.Atomic.make (if shared then 1 else 0);
        e_claim = P.Atomic.make 0;
      }
    in
    if not shared then
      e.e_tokens <-
        Array.map
          (fun q ->
            P.work Alloc;
            { t_entry = e; t_queue = q; t_state = state })
          e.e_queues;
    (match plan with
    | Class_map.Direct _ ->
        t.n_direct <- t.n_direct + 1;
        Probe.class_direct ()
    | Class_map.Rendezvous _ ->
        t.n_rendezvous <- t.n_rendezvous + 1;
        Probe.class_barrier ~tokens:(Array.length e.e_tokens));
    Probe.insert_done ~visits:(List.length fp);
    e

  let enqueue_tokens e =
    Array.iter (fun tok -> q_append tok.t_queue tok) e.e_tokens

  (* The shared read [e] joins its queues' readers, for the writes
     registered after it to wait on.  Completed readers are pruned once
     the list doubles. *)
  let note_reader e =
    Array.iter
      (fun q ->
        q.q_readers <- e :: q.q_readers;
        q.q_nreaders <- q.q_nreaders + 1;
        if q.q_nreaders > q.q_readers_cap then begin
          q.q_readers <- List.filter (fun r -> not r.e_finished) q.q_readers;
          q.q_nreaders <- List.length q.q_readers;
          q.q_readers_cap <- (2 * q.q_nreaders) + 64
        end)
      e.e_queues

  (* The confirmed write [e] is the newest of its queues.  The readers
     positioned before it are ones it waits for, and every later write
     queues behind it there, so they leave the list. *)
  let note_write e =
    Array.iter
      (fun q ->
        q.q_last_write <- Some e;
        if q.q_readers <> [] then begin
          q.q_readers <- List.filter (fun r -> r.e_pos > e.e_pos) q.q_readers;
          q.q_nreaders <- List.length q.q_readers
        end)
      e.e_queues

  (* The write [e] waits for the readers of its queues positioned in
     ([lo], [e_pos]): all earlier ones at first submission, the ones it
     moved behind at a repair's re-append.  Before its tokens go in. *)
  let write_waits e ~lo =
    let ps =
      Array.fold_left
        (fun ps q ->
          List.fold_left
            (fun ps r ->
              if
                r.e_pos > lo && r.e_pos < e.e_pos && (not r.e_finished)
                && not (List.memq r ps)
              then r :: ps
              else ps)
            ps q.q_readers)
        [] e.e_queues
    in
    if ps <> [] then begin
      e.e_gated <- true;
      let missed = join e ps in
      if missed > 0 then ignore (release e missed : bool)
    end

  (* The shared read [e] waits for the newest confirmed write of each of
     its queues that may still run, and drops its hold: [true] when that
     leaves it ready. *)
  let read_waits t e =
    let ps =
      if not t.read_gate then []
      else
        Array.fold_left
          (fun ps q ->
            match q.q_last_write with
            | Some w when w.e_finished ->
                q.q_last_write <- None;
                ps
            | Some w when not (List.memq w ps) -> w :: ps
            | Some _ | None -> ps)
          [] e.e_queues
    in
    ps = [] || release e (join e ps + 1)

  (* The outstanding-speculation FIFO: entries in ascending [e_pos] order
     (appends use a monotone counter; victims re-enter at the tail with a
     fresh position).  Submit-thread private, so no locks.  A push lands
     in position order even when a repair re-appended victims while its
     entry was being submitted (a feeder that submits and confirms from
     two processes interleaves at their platform operations). *)
  let fifo_push t e =
    let newest =
      match t.fifo_back with
      | en :: _ -> en.e_pos
      | [] -> List.fold_left (fun p en -> max p en.e_pos) 0 t.fifo_front
    in
    if newest < e.e_pos then t.fifo_back <- e :: t.fifo_back
    else begin
      t.fifo_front <-
        List.merge
          (fun a b -> compare a.e_pos b.e_pos)
          (t.fifo_front @ List.rev t.fifo_back)
          [ e ];
      t.fifo_back <- []
    end

  let fifo_normalize t =
    if t.fifo_front = [] then begin
      t.fifo_front <- List.rev t.fifo_back;
      t.fifo_back <- []
    end

  let fifo_remove t e =
    fifo_normalize t;
    match t.fifo_front with
    | x :: rest when x == e -> t.fifo_front <- rest
    | _ ->
        t.fifo_front <- List.filter (fun en -> en != e) t.fifo_front;
        t.fifo_back <- List.filter (fun en -> en != e) t.fifo_back

  let shares_queue a b =
    Array.exists
      (fun qa -> Array.exists (fun qb -> qa == qb) b.e_queues)
      a.e_queues

  (* Mis-speculation detection for an entry [e] that is being confirmed,
     or was just submitted conservatively: the victims are the
     still-unconfirmed speculations positioned ahead of [e] in one of its
     queues — i.e. FIFO entries with a smaller [e_pos] sharing a queue (a
     conservative [e] holds the newest position, so every outstanding
     speculation is ahead of it).  Fast paths: no speculation outstanding,
     or [e] is the FIFO head (confirmations arrive in speculated order),
     so nothing can be ahead of it — no locks, no scan. *)
  let victims t e =
    if not t.repair then []
    else begin
      fifo_normalize t;
      match t.fifo_front with
      | [] -> []
      | x :: _ when x == e -> []
      | _ ->
          let rec walk acc = function
            | en :: rest when en.e_pos < e.e_pos ->
                walk
                  (if en != e && shares_queue en e then en :: acc else acc)
                  rest
            | _ -> List.rev acc
          in
          walk [] (t.fifo_front @ List.rev t.fifo_back)
    end

  (* Roll back the mis-speculated state and repair the queues: quiesce
     each member queue of [e], undo its log suffix from the earliest
     victim onward (newest first), re-insert non-victim collaterals at
     the front in original order — [e] itself as [Confirmed] (it is
     committing now), others as fresh speculations — then revoke every
     victim and re-append it at the tail. *)
  let rollback t e vs =
    t.n_repairs <- t.n_repairs + 1;
    List.iter (fun v -> v.e_victim <- true) vs;
    let undone = ref 0 in
    Array.iter
      (fun q ->
        P.Mutex.lock q.q_m;
        q.q_gate <- true;
        while q.q_busy do
          P.Condition.wait q.q_cv q.q_m
        done;
        let log = q.q_log_front @ List.rev q.q_log_back in
        let rec split acc = function
          | [] -> (List.rev acc, [])
          | (en, _) :: _ as suffix when en.e_victim -> (List.rev acc, suffix)
          | x :: rest -> split (x :: acc) rest
        in
        let keep, suffix = split [] log in
        if suffix <> [] then begin
          List.iter
            (fun (en, undo) ->
              P.work Visit;
              undo ();
              incr undone;
              (* The record is gone and the entry will re-execute (and
                 re-log) later; without the reset a confirmation could
                 claim the stale record and commit before the redo. *)
              P.Atomic.set en.e_claim 0;
              if not en.e_victim then begin
                (* Collateral: it read rolled-back state but its position
                   stands, so it re-executes in place against the
                   repaired prefix. *)
                let st = if en == e then Confirmed else Pending in
                P.work Alloc;
                let tok' = { t_entry = en; t_queue = q; t_state = st } in
                en.e_tokens <- [| tok' |];
                q.q_front <- tok' :: q.q_front;
                if st = Pending then q.q_pending <- q.q_pending + 1
              end)
            (List.rev suffix);
          q.q_log_front <- keep;
          q.q_log_back <- []
        end;
        (* The gate stays up until the victims below are revoked: dropping
           it here would let this queue's worker speculatively pop a
           still-pending victim token in the window before its revocation,
           executing a command the repair is about to re-append. *)
        P.Mutex.unlock q.q_m)
      e.e_queues;
    t.n_undone <- t.n_undone + !undone;
    if !undone > 0 then Probe.spec_rollback ~undone:!undone;
    (* Revoke the victims' remaining queued tokens and re-append each
       victim at the tail as a fresh pending speculation, preserving their
       relative order (they confirm after [e], in FIFO order).  Victim
       tokens outside [e]'s gated queues belong to rendezvous entries,
       which are never speculatively popped, so flipping them without a
       gate is safe.  A victim read has no token: the writes that waited
       for it now come before it, so it releases them. *)
    List.iter
      (fun v ->
        Array.iter
          (fun tok ->
            let q = tok.t_queue in
            P.Mutex.lock q.q_m;
            (match tok.t_state with
            | Pending -> q_settle q tok Revoked
            | Taken -> tok.t_state <- Revoked
            | Confirmed | Revoked -> ());
            P.Mutex.unlock q.q_m)
          v.e_tokens;
        if v.e_shared then begin
          match P.Atomic.get v.e_state with
          | Waited ws as s when P.Atomic.compare_and_set v.e_state s Live ->
              release_all t ws
          | Live | Waited _ | Done -> ()
        end;
        v.e_victim <- false;
        let lo = v.e_pos in
        v.e_pos <- next_pos t;
        if not v.e_shared then begin
          if v.e_writes then write_waits v ~lo;
          v.e_tokens <-
            Array.map
              (fun tok ->
                P.work Alloc;
                { t_entry = v; t_queue = tok.t_queue; t_state = Pending })
              v.e_tokens;
          enqueue_tokens v
        end;
        t.n_revoked <- t.n_revoked + 1)
      vs;
    Array.iter
      (fun q ->
        P.Mutex.lock q.q_m;
        q.q_gate <- false;
        P.Condition.broadcast q.q_cv;
        P.Mutex.unlock q.q_m)
      e.e_queues;
    let keep_out en = not (List.memq en vs) in
    t.fifo_front <- List.filter keep_out t.fifo_front;
    t.fifo_back <- List.filter keep_out t.fifo_back;
    List.iter (fifo_push t) vs;
    Probe.spec_repair ~revoked:(List.length vs)

  let repair_ahead t e =
    match victims t e with [] -> () | vs -> rollback t e vs

  (* Window reservation, shared by every submission path: [reserve t need]
     grants [k] slots, [1 <= k <= need], for the caller to spend at once.
     Banked [credit] goes first.  When it falls short, the reservation
     adds the slots free right now, up to [window_chunk] or the shortfall
     if that is more, and banks what the caller does not spend; it blocks
     only when nothing is banked and no slot is free, and then for one:
     blocking for slots the caller will not spend holds back commands
     that could already run.  The submit thread is the only acquirer, so
     the free count it reads can only grow before the acquire.  An
     optimistic submission, or any while speculation is outstanding
     ([need] is then 1), blocks for a chunk of the slots that free
     without our help instead: slots held by outstanding speculations are
     freed only by a later [confirm] from this very thread, so the chunk
     shrinks as speculation runs ahead. *)
  let window_chunk = 32

  let reserve ?(optimistic = false) t need =
    if t.credit < need then begin
      let n =
        if optimistic || t.spec_out > 0 then
          max 1 (min window_chunk (t.wmax - t.spec_out))
        else
          let short = need - t.credit in
          let free = min (P.Semaphore.value t.window) (max window_chunk short) in
          if t.credit = 0 then max 1 free else free
      in
      if n > 0 then P.Semaphore.acquire ~n t.window;
      t.credit <- t.credit + n
    end;
    let k = min t.credit need in
    t.credit <- t.credit - k;
    k

  (* A conservative submission.  A shared read joins its queues' readers
     before any victim is re-appended behind it, and counts its waits
     after the repair, on confirmed writes only.  A write counts its
     waits before its tokens go in, and becomes its queues' newest write
     once the victims ahead of it are repaired behind it. *)
  let submit t c =
    ignore (reserve t 1 : int);
    let e = make_entry t c ~spec:false ~state:Confirmed in
    if e.e_shared then begin
      note_reader e;
      repair_ahead t e;
      if read_waits t e then push_ready t [ e ]
    end
    else begin
      if e.e_writes then write_waits e ~lo:0;
      enqueue_tokens e;
      repair_ahead t e;
      if e.e_writes then note_write e
    end;
    Pool.count_submitted t.pool 1

  (* Append confirmed entries for [cs.(off) .. cs.(off + n - 1)]: tokens
     bucketed per queue and appended under one lock round per queue, then
     the slice's ready reads pushed with one CAS.  Buckets accumulate
     newest-first — the same orientation as [q_back], so the whole bucket
     prepends in one pass. *)
  let append_slice t cs off n =
    let buckets = Array.make (Array.length t.queues) [] in
    let ready = ref [] in
    for i = off to off + n - 1 do
      let e = make_entry t cs.(i) ~spec:false ~state:Confirmed in
      if e.e_shared then begin
        note_reader e;
        if read_waits t e then ready := e :: !ready
      end
      else begin
        if e.e_writes then begin
          write_waits e ~lo:0;
          note_write e
        end;
        Array.iter
          (fun tok ->
            let w = tok.t_queue.q_worker - 1 (* ids are 1-based *) in
            buckets.(w) <- tok :: buckets.(w))
          e.e_tokens
      end
    done;
    Array.iteri
      (fun w toks -> if toks <> [] then q_append_all t.queues.(w) toks)
      buckets;
    if !ready <> [] then push_ready t (List.rev !ready)

  (* True batched submission: one [submitted] bump, and per round one
     window reservation and one lock acquisition per member queue instead
     of one per token.  Only sound with no speculation outstanding — with
     speculations in flight each command's repair must observe the queues
     exactly as the sequential loop would — so that case falls back to
     per-command submits.  [spec_out] is submit-thread-private, so the
     test is stable for the whole batch.  This is the conservative feed's
     (and the optimistic protocol's 0%-mis) fast path.

     Rounds, as [Lockfree.insert_batch]: each appends the slice its
     reservation covers before asking for more, so the head of a batch
     runs while the window is still full and a batch of any length goes
     through any window. *)
  let submit_batch t cs =
    let n = Array.length cs in
    if n > 0 then begin
      Probe.batch n;
      if t.spec_out > 0 then Array.iter (submit t) cs
      else begin
        let rec round off =
          if off < n then begin
            let k = reserve t (n - off) in
            append_slice t cs off k;
            round (off + k)
          end
        in
        round 0;
        Pool.count_submitted t.pool n
      end
    end

  let submit_optimistic t c =
    ignore (reserve ~optimistic:true t 1 : int);
    let e = make_entry t c ~spec:true ~state:Pending in
    if e.e_shared then note_reader e
    else begin
      if e.e_writes then write_waits e ~lo:0;
      enqueue_tokens e
    end;
    t.spec_out <- t.spec_out + 1;
    fifo_push t e;
    e

  (* Commit duty for a confirmed single-queue entry, decided entirely
     under its queue lock — the worker's speculative pop (Pending ->
     Taken) races the confirmation, so reading the token state outside
     the lock could leave a just-popped speculation with no one to commit
     it.  Under the lock the entry is in exactly one of four places:
     still queued pending (flip it, the worker runs it committed),
     already executed (pop it off the undo log and commit here),
     mid-execution (hand commit duty to the worker via
     [e_commit_wanted]), or already re-planted as a confirmed token by a
     rollback (nothing to do — the worker commits it). *)
  let confirm_direct t e =
    (* Fast path: the speculative execution already logged its undo
       record (claim 1) — the steady-state case, confirmation trailing
       execution by about a pipeline block.  One CAS claims the record
       and commits without touching the queue lock; the orphaned log
       record is reclaimed by the worker's next push ([log_prune]) and
       skipped, via [e_state], at [close].  Everything else falls back to
       the locked protocol below. *)
    if P.Atomic.compare_and_set e.e_claim 1 3 then commit t e
    else begin
      let tok = e.e_tokens.(0) in
      let q = tok.t_queue in
      P.Mutex.lock q.q_m;
      let commit_now =
        match tok.t_state with
        | Pending ->
            q_settle q tok Confirmed;
            false
        | Taken ->
            if P.Atomic.compare_and_set e.e_claim 1 3 then begin
              (* Logged between the unlocked attempt and taking the lock;
                 holding the lock anyway, pull the record out eagerly.
                 The filter (rather than a front pop) also covers the
                 [repair = false] broken variant, where older
                 mis-speculations linger in the log below this entry. *)
              let keep (en, _) = en != e in
              q.q_log_front <- List.filter keep q.q_log_front;
              q.q_log_back <- List.filter keep q.q_log_back;
              true
            end
            else begin
              (* Mid-execution: hand the commit duty to the worker. *)
              e.e_commit_wanted <- true;
              false
            end
        | Confirmed | Revoked -> false
      in
      P.Mutex.unlock q.q_m;
      if commit_now then commit t e
    end

  let confirm_rendezvous e =
    (* Cross-class tokens never speculate, so a plain locked flip per
       member queue suffices; already-confirmed tokens (planted by a
       rollback) are left alone. *)
    Array.iter
      (fun tok ->
        let q = tok.t_queue in
        P.Mutex.lock q.q_m;
        if tok.t_state = Pending then q_settle q tok Confirmed;
        P.Mutex.unlock q.q_m)
      e.e_tokens

  let confirm t e =
    if not e.e_spec then
      invalid_arg "Dispatch.confirm: not an optimistic submission";
    if e.e_confirmed then invalid_arg "Dispatch.confirm: already confirmed";
    e.e_confirmed <- true;
    let vs = victims t e in
    fifo_remove t e;
    t.spec_out <- t.spec_out - 1;
    (match vs with
    | [] -> Probe.spec_confirm ()
    | vs -> rollback t e vs);
    if e.e_shared then begin
      if read_waits t e then push_ready t [ e ]
    end
    else begin
      if e.e_writes then note_write e;
      if Array.length e.e_tokens = 1 then confirm_direct t e
      else confirm_rendezvous e
    end;
    Pool.count_submitted t.pool 1

  (* ---------------------------------------------------------------- *)
  (* Workers.                                                          *)

  type work =
    | Fetched of token
    | Speculative of token
    | Ready of entry  (* a shared read off the ready queue *)

  (* The write gate, at the executor's queue only: the other members of a
     rendezvous arrive and wait in its barrier as usual. *)
  let gated t q tok =
    let e = tok.t_entry in
    e.e_gated && t.write_gate
    && e.e_queues.(0) == q
    && P.Atomic.get e.e_deps > 0

  let q_normalize q =
    match q.q_front with
    | [] when q.q_back <> [] ->
        q.q_front <- List.rev q.q_back;
        q.q_back <- []
    | _ -> ()

  (* The worker's blocking fetch: skip revoked tokens, pop confirmed ones,
     pop pending single-queue heads for speculative execution when the
     hook is installed (and no rollback is gating the queue).  With
     nothing runnable — queue empty, head pending (its confirmation or
     revocation will broadcast) or head a gated write (the last read it
     waits for will broadcast) — the worker parks, and while shared reads
     are on it first takes a ready read, if there is one.  After close, a
     still-pending head is a speculation that will never be confirmed —
     dropped, releasing its window slot — and a worker leaves once its
     queue and the ready queue are empty: any read made ready later is
     made so by a worker that will look again. *)
  let q_next t q : work option =
    let spec_run =
      match t.speculate with Some _ -> true | None -> false
    in
    P.Mutex.lock q.q_m;
    let ready () = Option.map (fun e -> Ready e) (take_ready t) in
    let rec loop () =
      q_normalize q;
      match q.q_front with
      | [] ->
          if not q.q_closed then park ()
          else if t.reads_on then ready ()
          else None
      | tok :: rest -> (
          match tok.t_state with
          | Revoked | Taken ->
              q.q_front <- rest;
              loop ()
          | Confirmed ->
              if gated t q tok then park ()
              else begin
                q.q_front <- rest;
                Some (Fetched tok)
              end
          | Pending ->
              if q.q_closed then begin
                q.q_front <- rest;
                q.q_pending <- q.q_pending - 1;
                drop t tok.t_entry;
                loop ()
              end
              else if
                spec_run
                && (match tok.t_entry.e_barrier with
                   | None -> true
                   | Some _ -> false)
                && not q.q_gate
              then begin
                if gated t q tok then park ()
                else begin
                  q.q_front <- rest;
                  q.q_pending <- q.q_pending - 1;
                  tok.t_state <- Taken;
                  q.q_busy <- true;
                  Some (Speculative tok)
                end
              end
              else park ())
    and park () =
      if not t.reads_on then begin
        P.Condition.wait q.q_cv q.q_m;
        loop ()
      end
      else begin
        (* The hint goes up before the look: see [push_ready]. *)
        q.q_parked <- true;
        match take_ready t with
        | Some e ->
            q.q_parked <- false;
            Some (Ready e)
        | None ->
            P.Condition.wait q.q_cv q.q_m;
            if q.q_parked then begin
              q.q_parked <- false;
              loop ()
            end
            else (* a push cleared the hint: its read comes first *)
              match ready () with Some w -> Some w | None -> loop ()
      end
    in
    let r = loop () in
    P.Mutex.unlock q.q_m;
    r

  (* One execution of [e], committed or speculative: dispatch latency and
     redo accounting, then [f] on the command, timed. *)
  let execution t e f =
    Probe.dispatch_latency (Probe.now () -. e.e_enq_at);
    if e.e_runs > 0 then begin
      ignore (P.Atomic.fetch_and_add t.redos 1 : int);
      bump_max t.redo_depth (e.e_runs + 1);
      Probe.spec_redo ~depth:(e.e_runs + 1)
    end;
    e.e_runs <- e.e_runs + 1;
    let t0 = Probe.now () in
    let r = f e.e_cmd in
    Probe.exec_latency (Probe.now () -. t0);
    r

  let run_entry t e =
    execution t e t.execute;
    commit t e

  (* Speculative execution of a popped pending token: run the command
     through the undo hook, then log the undo under the queue lock.  If
     the confirmation raced us ([e_commit_wanted]), the speculation is
     already known clean — commit instead of logging. *)
  let run_spec t q tok =
    let e = tok.t_entry in
    let speculate =
      match t.speculate with Some f -> f | None -> assert false
    in
    let undo = execution t e speculate in
    ignore (P.Atomic.fetch_and_add t.spec_execs 1 : int);
    Probe.spec_exec ();
    P.Mutex.lock q.q_m;
    let committing = e.e_commit_wanted in
    if committing then e.e_commit_wanted <- false
    else begin
      log_prune q;
      q.q_log_back <- (e, undo) :: q.q_log_back;
      (* Published after the record is in place, so a confirmation that
         wins the 1 -> 3 claim always finds a complete log entry. *)
      P.Atomic.set e.e_claim 1
    end;
    q.q_busy <- false;
    P.Condition.broadcast q.q_cv;
    P.Mutex.unlock q.q_m;
    if committing then commit t e

  (* A fetched token, past the fault hook: a single-queue entry runs here;
     a rendezvous runs on its designated worker once every member has
     arrived, and completion releases the others. *)
  let run_token t i tok =
    let e = tok.t_entry in
    match e.e_barrier with
    | None -> run_entry t e
    | Some b -> (
        match B.arrive b ~worker:i with
        | `Execute ->
            run_entry t e;
            B.complete b
        | `Done -> ())

  (* The pool's item callbacks: a crash returns the fetched work where it
     came from — a token to the front of its queue, a ready read to the
     front of the ready queue. *)
  let requeue t i w =
    (match w with
    | Speculative tok | Fetched tok -> q_push_front t.queues.(i - 1) tok
    | Ready e -> ready_push_front t e);
    Probe.requeue ()

  let run t i = function
    | Speculative tok -> run_spec t t.queues.(i - 1) tok
    | Fetched tok -> run_token t i tok
    | Ready e -> run_entry t e

  (* ---------------------------------------------------------------- *)
  (* Life cycle.                                                       *)

  let start_full ?max_size ?classes ?(repair = true) ?(write_gate = true)
      ?(read_gate = true) ?speculate ?on_commit ?fault ~workers ~execute () =
    if workers <= 0 then invalid_arg "Dispatch.start: workers must be positive";
    let max_size =
      match max_size with
      | None -> Psmr_cos.Cos_intf.default_max_size
      | Some m ->
          if m <= 0 then invalid_arg "Dispatch.start: max_size must be positive";
          m
    in
    let t =
      {
        map = Class_map.create ?classes ~workers ();
        queues =
          Array.init workers (fun i ->
              {
                q_worker = i + 1;
                q_m = P.Mutex.create ();
                q_cv = P.Condition.create ();
                q_front = [];
                q_back = [];
                q_pending = 0;
                q_closed = false;
                q_busy = false;
                q_gate = false;
                q_log_front = [];
                q_log_back = [];
                q_parked = false;
                q_last_write = None;
                q_readers = [];
                q_nreaders = 0;
                q_readers_cap = 64;
              });
        window = P.Semaphore.create max_size;
        repair;
        write_gate;
        read_gate;
        execute;
        speculate;
        on_commit;
        pool = Pool.create ?fault ~workers ();
        dropped = P.Atomic.make 0;
        spec_execs = P.Atomic.make 0;
        redos = P.Atomic.make 0;
        redo_depth = P.Atomic.make 0;
        wmax = max_size;
        ready = P.Atomic.make [];
        reads_on = false;
        spec_out = 0;
        credit = 0;
        pos_ctr = 0;
        fifo_front = [];
        fifo_back = [];
        n_direct = 0;
        n_rendezvous = 0;
        n_repairs = 0;
        n_revoked = 0;
        n_undone = 0;
      }
    in
    Pool.spawn t.pool
      ~fetch:(fun i -> q_next t t.queues.(i - 1))
      ~requeue:(requeue t) ~run:(run t);
    t

  let start ?fault ?max_size ~workers ~execute () =
    start_full ?fault ?max_size ~workers ~execute ()

  let submitted t = Pool.submitted t.pool
  let executed t = Pool.executed t.pool
  let in_flight t = Pool.in_flight t.pool
  let crashed_workers t = Pool.crashed t.pool
  let dropped t = P.Atomic.get t.dropped
  let classes t = Class_map.classes t.map
  let direct_count t = t.n_direct
  let rendezvous_count t = t.n_rendezvous
  let repair_count t = t.n_repairs
  let revoked_count t = t.n_revoked
  let spec_exec_count t = P.Atomic.get t.spec_execs
  let rollback_count t = t.n_undone
  let redo_count t = P.Atomic.get t.redos
  let redo_depth_max t = P.Atomic.get t.redo_depth

  let drain ?poll t = Pool.drain ?poll t.pool

  (* Close every worker queue.  Unconfirmed shared reads have no token for
     a worker to drop on its way out, so they are dropped here.
     Unconfirmed speculations that already executed are rolled back —
     close discards unconfirmed speculation, and with execution-time
     optimism discarding means undoing — then counted dropped, like the
     still-queued pending tokens the workers drop on their way out. *)
  let close t =
    List.iter
      (fun e -> if e.e_shared then drop t e)
      (t.fifo_front @ List.rev t.fifo_back);
    Array.iter
      (fun q ->
        P.Mutex.lock q.q_m;
        q.q_closed <- true;
        while q.q_busy do
          P.Condition.wait q.q_cv q.q_m
        done;
        let log = q.q_log_front @ List.rev q.q_log_back in
        List.iter
          (fun (en, undo) ->
            (* Records claimed by the confirm fast path stay in the log
               until a later push prunes them; their entries committed,
               so neither the undo nor the drop applies. *)
            if not (is_done en) then begin
              undo ();
              drop t en
            end)
          (List.rev log);
        q.q_log_front <- [];
        q.q_log_back <- [];
        P.Condition.broadcast q.q_cv;
        P.Mutex.unlock q.q_m)
      t.queues

  let shutdown ?poll t = Pool.shutdown ?poll t.pool ~close:(fun () -> close t)

  (* ---------------------------------------------------------------- *)
  (* Diagnostics: ghost reads for the checker and the tests.  Like the
     COS [invariant], these take no locks and are exact only between
     scheduled operations (checker) or at quiescence (tests). *)

  (* Two stuck shapes: a partial rendezvous (a member never arrived), and
     a ready read that no worker took.  A member arrives right after
     popping its token, and a crash before the arrival pushes the token
     back, so at a halt every partial rendezvous still has an unarrived
     member's token queued: scanning the queues finds them all.  Reported
     oldest position first. *)
  let stalled_barriers t =
    let partial e =
      match e.e_barrier with
      | Some b
        when (not (B.completed b))
             && (not (is_done e))
             && B.arrived b > 0
             && B.arrived b < B.size b ->
          Some
            ( e.e_pos,
              Printf.sprintf
                "class-barrier stuck at %d/%d arrivals (designated w%d)"
                (B.arrived b) (B.size b) (B.designated b) )
      | _ -> None
    in
    (* Positions are unique per entry: sorting on them drops the entry's
       other members' tokens. *)
    List.map snd
      (List.sort_uniq
         (fun (a, _) (b, _) -> compare a b)
         (List.concat_map
            (fun q ->
              List.filter_map
                (fun tok -> partial tok.t_entry)
                (q.q_front @ q.q_back))
            (Array.to_list t.queues)))
    @
    match List.filter (fun e -> not (is_done e)) (P.Atomic.get t.ready) with
    | [] -> []
    | rs ->
        [
          Printf.sprintf "%d ready shared read(s) left unclaimed"
            (List.length rs);
        ]

  let invariant ?(strict = false) t =
    let errs = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
    Array.iter
      (fun q ->
        let toks = q.q_front @ List.rev q.q_back in
        let pending =
          List.length (List.filter (fun tok -> tok.t_state = Pending) toks)
        in
        if pending <> q.q_pending then
          err "queue w%d: pending counter %d but %d pending tokens" q.q_worker
            q.q_pending pending;
        let seen_pending = ref false in
        List.iter
          (fun tok ->
            match tok.t_state with
            | Pending -> seen_pending := true
            | Confirmed ->
                if !seen_pending then
                  err "queue w%d: confirmed token behind a pending one"
                    q.q_worker
            | Revoked | Taken -> ())
          toks;
        (* Revoked tokens are dead weight: their entry's [e_pos] was
           reassigned at re-append and no longer describes this physical
           slot, so only live tokens must sit in position order. *)
        let rec sorted = function
          | a :: (b :: _ as rest) ->
              if a.t_entry.e_pos > b.t_entry.e_pos then
                err "queue w%d: positions out of order (%d before %d)"
                  q.q_worker a.t_entry.e_pos b.t_entry.e_pos;
              sorted rest
          | [] | [ _ ] -> ()
        in
        sorted (List.filter (fun tok -> tok.t_state <> Revoked) toks);
        if strict && toks <> [] then
          err "queue w%d: %d tokens left at quiescence" q.q_worker
            (List.length toks);
        if strict && (q.q_log_front <> [] || q.q_log_back <> []) then
          err "queue w%d: %d uncommitted speculations left at quiescence"
            q.q_worker
            (List.length q.q_log_front + List.length q.q_log_back))
      t.queues;
    if strict then begin
      let sub = submitted t and ex = executed t in
      if sub <> ex then err "submitted %d <> executed %d at quiescence" sub ex;
      List.iter (fun msg -> err "%s at quiescence" msg) (stalled_barriers t)
    end;
    List.rev !errs
end
