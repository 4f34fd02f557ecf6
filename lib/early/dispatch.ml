(* The early-scheduling execution runtime: one FIFO of tokens per worker,
   a static class map deciding at submit time which queues a command
   touches, and a rendezvous barrier for cross-class commands.

   Shared read rendezvous.  A cross-class command whose footprint writes
   nothing conflicts with no other such command, so its barrier is
   shared: member workers arrive without blocking and carry on with
   their queues, and the last to arrive executes it — or, when the next
   token in its own queue was another shared read at pop time, hands it
   to an idle member (one parked on an empty queue) through that
   worker's one-read slot and carries on too, so a burst of scans whose
   last arriver is the same lagging worker runs side by side instead of
   back to back on it.  What keeps that sound is the per-queue write
   gate: a token whose command writes is not handed out ([q_next]) until
   every shared read the queue's worker has already passed ([q_reads]) is
   complete — a write to a key a read covers shares a queue with it (the
   class map gives the write every member of the key's class), so the
   read still sees the state before the write, whichever worker runs it.
   Writes keep the exclusive barrier and always run on the designated
   worker.  Deadlock freedom follows from per-queue position order: the
   incomplete command with the smallest position has every member token
   at the front of its queue (all earlier tokens belong to complete
   commands), and nothing it can wait on — an exclusive arrival, a shared
   arrival, the write gate — waits on a larger position; a handed read
   waits on nothing, since its helper was idle and takes the slot before
   anything else.

   Token life cycle.  A token is [Pending] (optimistically enqueued, not
   yet confirmed by final delivery), [Confirmed] (executable once it
   reaches the head of its queue), [Taken] (a pending single-queue token
   popped by its worker for speculative execution) or [Revoked] (pulled
   out by the repair path; workers skip it).  Conservative submissions
   append [Confirmed] tokens directly; optimistic submissions append
   [Pending] ones and a later {!confirm} commits them.

   Ordering argument.  The submit thread is the only thread that appends,
   confirms or revokes, and it processes final deliveries in final order,
   so confirmation order = final delivery order.  Every entry carries a
   monotone queue position [e_pos] assigned at (re-)append time, so per
   queue the token order is ascending [e_pos] order.  Unconfirmed
   speculations additionally sit in a submit-thread-private FIFO in the
   same order.  When a command is confirmed (or conservatively
   submitted), any unconfirmed speculation with a smaller position that
   shares one of its queues belongs to a command whose confirmation —
   hence final position — comes later, so that command is mis-speculated.
   Detecting this costs one FIFO head comparison on the fast path (the
   confirmation arrives in speculated order) and never touches a queue
   lock; no per-queue scan is needed because position order and queue
   order coincide.

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
   tail as fresh speculations.  Cross-class (rendezvous) commands never
   execute speculatively — their barrier would entangle other queues in
   the rollback — so a rollback is always confined to single-queue
   entries, and an undo log never holds a command that conflicts with
   another queue's contents (conflicting commands share a queue).

   The workers are a [Psmr_sched.Pool], like the COS scheduler's: a crash
   pushes the fetched token back at the {e front} of its queue (order
   intact; a speculative pop is restored to [Pending]), or a handed read
   back into the slot.  A crash-stop of a worker involved in a
   rendezvous, or holding a handed read, leaves that command unable to
   complete — the class-barrier deadlock the checker's oracle looks for —
   while a respawned worker re-pops the token or the read and drains it. *)

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
    e_barrier : B.t option;  (* [None] = single-queue fast path *)
    e_writes : bool;  (* the footprint writes: gated behind passed reads *)
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
    e_done : bool P.Atomic.t;  (* committed or dropped; window released *)
    e_claim : int P.Atomic.t;
        (* speculative-log claim: 0 = no undo record logged, 1 = the
           worker logged one (set under the queue lock, after the push),
           3 = a confirmation claimed the logged record and committed
           without the lock.  The 1 -> 3 transition is the confirm fast
           path; a rollback resets undone entries to 0. *)
  }

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
    (* Write gate, protected by [q_m]: shared reads the worker passed that
       may still be running, pruned of completed ones lazily. *)
    mutable q_reads : entry list;
    mutable q_nreads : int;
    mutable q_prune_at : int;
    (* Shared-read hand-off, protected by [q_m]: [q_idle] while the worker
       is parked on an empty queue with its slot empty (others read it
       without the lock, as a hint), [q_slot] a fully arrived shared read
       handed to this worker. *)
    mutable q_idle : bool;
    mutable q_slot : entry option;
  }

  type spec = entry

  type t = {
    map : Class_map.t;
    queues : queue array;
    window : P.Semaphore.t;  (* in-flight bound, like the COS max_size *)
    repair : bool;
    write_gate : bool;  (* [false] only in the checker's planted variant *)
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
     two states: queue empty, or head [Pending] (woken by
     confirm/revoke/close broadcasts, not by appends).  So an append only
     needs to signal when it makes the queue non-empty. *)
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

  (* Drop already-committed records off the log front (with the queue
     lock held).  The confirm fast path commits a logged entry without
     the lock and leaves its record behind; the worker reclaims those
     here at its next log push. *)
  let rec log_prune q =
    match q.q_log_front with
    | (en, _) :: rest when P.Atomic.get en.e_done ->
        q.q_log_front <- rest;
        log_prune q
    | [] when q.q_log_back <> [] ->
        q.q_log_front <- List.rev q.q_log_back;
        q.q_log_back <- [];
        log_prune q
    | _ -> ()

  let drop t e =
    if P.Atomic.compare_and_set e.e_done false true then begin
      ignore (P.Atomic.fetch_and_add t.dropped 1 : int);
      P.Semaphore.release t.window
    end

  (* Terminal success: exactly one of [commit]/[drop] fires per entry. *)
  let commit t e =
    if P.Atomic.compare_and_set e.e_done false true then begin
      Pool.count_executed t.pool;
      (match t.on_commit with Some f -> f e.e_cmd | None -> ());
      P.Semaphore.release t.window
    end

  type work =
    | Fetched of token * bool
        (* [true]: a shared read whose successor in the queue, at pop
           time, was another shared read — its execution may be handed off *)
    | Speculative of token
    | Handed of entry  (* a fully arrived shared read from another worker *)

  (* Write-gate bookkeeping, under [q_m].  Passed shared reads are
     recorded at pop time; completed ones are dropped when a write asks
     the gate, or once the list doubles since the last prune. *)
  let prune_reads q =
    q.q_reads <- List.filter (fun e -> not (P.Atomic.get e.e_done)) q.q_reads;
    q.q_nreads <- List.length q.q_reads;
    q.q_prune_at <- (2 * q.q_nreads) + 64

  let note_read q e =
    q.q_reads <- e :: q.q_reads;
    q.q_nreads <- q.q_nreads + 1;
    if q.q_nreads > q.q_prune_at then prune_reads q

  (* The shared read a token must wait out before it may be handed out:
     none for a read, or while every passed shared read is complete. *)
  let gated_on t q tok =
    if (not tok.t_entry.e_writes) || (not t.write_gate) || q.q_reads = []
    then None
    else begin
      prune_reads q;
      match q.q_reads with [] -> None | e :: _ -> e.e_barrier
    end

  let is_shared_read e =
    match e.e_barrier with Some _ -> not e.e_writes | None -> false

  let q_normalize q =
    match q.q_front with
    | [] when q.q_back <> [] ->
        q.q_front <- List.rev q.q_back;
        q.q_back <- []
    | _ -> ()

  (* The worker's blocking fetch: a handed read first, then skip revoked
     tokens, pop confirmed ones, pop pending single-queue heads for
     speculative execution when the hook is installed (and no rollback is
     gating the queue), otherwise wait while the head is pending (its
     confirmation or revocation will broadcast).  A writing head waits,
     outside the queue lock, for the passed shared reads to complete.
     After close, a still-pending head is a speculation that will never be
     confirmed — dropped, releasing its window slot.  Parked on an empty
     queue, the worker is idle ([q_idle]): a handed read may land in its
     slot. *)
  let q_next t q : work option =
    let spec_run =
      match t.speculate with Some _ -> true | None -> false
    in
    P.Mutex.lock q.q_m;
    let rec loop () =
      match q.q_slot with
      | Some e ->
          q.q_slot <- None;
          Some (Handed e)
      | None -> next_token ()
    and next_token () =
      q_normalize q;
      match q.q_front with
      | [] ->
          if q.q_closed then None
          else begin
            q.q_idle <- true;
            P.Condition.wait q.q_cv q.q_m;
            q.q_idle <- false;
            loop ()
          end
      | tok :: rest -> (
          match tok.t_state with
          | Revoked | Taken ->
              q.q_front <- rest;
              loop ()
          | Confirmed -> (
              match gated_on t q tok with
              | Some b -> wait_out b
              | None ->
                  q.q_front <- rest;
                  q_normalize q;
                  let shared = is_shared_read tok.t_entry in
                  if shared then note_read q tok.t_entry;
                  let hand =
                    match q.q_front with
                    | next :: _ -> shared && is_shared_read next.t_entry
                    | [] -> false
                  in
                  Some (Fetched (tok, hand)))
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
                match gated_on t q tok with
                | Some b -> wait_out b
                | None ->
                    q.q_front <- rest;
                    q.q_pending <- q.q_pending - 1;
                    tok.t_state <- Taken;
                    q.q_busy <- true;
                    Some (Speculative tok)
              end
              else (P.Condition.wait q.q_cv q.q_m; loop ()))
    and wait_out b =
      P.Mutex.unlock q.q_m;
      B.await b;
      P.Mutex.lock q.q_m;
      loop ()
    in
    let r = loop () in
    P.Mutex.unlock q.q_m;
    r

  (* ---------------------------------------------------------------- *)
  (* Submit-side: planning, enqueueing, confirmation and repair.       *)

  let next_pos t =
    t.pos_ctr <- t.pos_ctr + 1;
    t.pos_ctr

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
    let queues = Array.map (fun id -> t.queues.(id - 1)) member_ids in
    let writes = List.exists snd fp in
    let barrier =
      match plan with
      | Class_map.Direct _ -> None
      | Class_map.Rendezvous { members; designated } ->
          P.work Alloc;
          let size = Array.length members in
          Some
            (if writes then B.create ~size ~designated
             else B.create_shared ~size)
    in
    let e =
      {
        e_cmd = c;
        e_barrier = barrier;
        e_writes = writes;
        e_spec = spec;
        e_enq_at = Probe.now ();
        e_pos = next_pos t;
        e_tokens = [||];
        e_confirmed = false;
        e_victim = false;
        e_commit_wanted = false;
        e_runs = 0;
        e_done = P.Atomic.make false;
        e_claim = P.Atomic.make 0;
      }
    in
    e.e_tokens <-
      Array.map
        (fun q ->
          P.work Alloc;
          { t_entry = e; t_queue = q; t_state = state })
        queues;
    (match plan with
    | Class_map.Direct _ ->
        t.n_direct <- t.n_direct + 1;
        Probe.class_direct ()
    | Class_map.Rendezvous { members; _ } ->
        t.n_rendezvous <- t.n_rendezvous + 1;
        Probe.class_barrier ~tokens:(Array.length members));
    Probe.insert_done ~visits:(List.length fp);
    e

  let enqueue_tokens e = Array.iter (fun tok -> q_append tok.t_queue tok) e.e_tokens

  (* The outstanding-speculation FIFO: entries in ascending [e_pos] order
     (appends use a monotone counter; victims re-enter at the tail with a
     fresh position).  Submit-thread private, so no locks. *)
  let fifo_push t e = t.fifo_back <- e :: t.fifo_back

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
      (fun ta -> Array.exists (fun tb -> ta.t_queue == tb.t_queue) b.e_tokens)
      a.e_tokens

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
      (fun tok ->
        let q = tok.t_queue in
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
      e.e_tokens;
    t.n_undone <- t.n_undone + !undone;
    if !undone > 0 then Probe.spec_rollback ~undone:!undone;
    (* Revoke the victims' remaining queued tokens and re-append each
       victim at the tail as a fresh pending speculation, preserving their
       relative order (they confirm after [e], in FIFO order).  Victim
       tokens outside [e]'s gated queues belong to rendezvous entries,
       which are never speculatively popped, so flipping them without a
       gate is safe. *)
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
        v.e_victim <- false;
        v.e_pos <- next_pos t;
        v.e_tokens <-
          Array.map
            (fun tok ->
              P.work Alloc;
              { t_entry = v; t_queue = tok.t_queue; t_state = Pending })
            v.e_tokens;
        Array.iter (fun tok -> q_append tok.t_queue tok) v.e_tokens;
        t.n_revoked <- t.n_revoked + 1)
      vs;
    Array.iter
      (fun tok ->
        let q = tok.t_queue in
        P.Mutex.lock q.q_m;
        q.q_gate <- false;
        P.Condition.broadcast q.q_cv;
        P.Mutex.unlock q.q_m)
      e.e_tokens;
    let keep_out en = not (List.memq en vs) in
    t.fifo_front <- List.filter keep_out t.fifo_front;
    t.fifo_back <- List.filter keep_out t.fifo_back;
    List.iter (fifo_push t) vs;
    Probe.spec_repair ~revoked:(List.length vs)

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

  let submit t c =
    ignore (reserve t 1 : int);
    let e = make_entry t c ~spec:false ~state:Confirmed in
    enqueue_tokens e;
    (match victims t e with [] -> () | vs -> rollback t e vs);
    Pool.count_submitted t.pool 1

  (* Append confirmed entries for [cs.(off) .. cs.(off + n - 1)]: tokens
     bucketed per queue and appended under one lock round per queue.
     Buckets accumulate newest-first — the same orientation as [q_back],
     so the whole bucket prepends in one pass. *)
  let append_slice t cs off n =
    let buckets = Array.make (Array.length t.queues) [] in
    for i = off to off + n - 1 do
      let e = make_entry t cs.(i) ~spec:false ~state:Confirmed in
      Array.iter
        (fun tok ->
          let w = tok.t_queue.q_worker - 1 (* ids are 1-based *) in
          buckets.(w) <- tok :: buckets.(w))
        e.e_tokens
    done;
    Array.iteri
      (fun w toks -> if toks <> [] then q_append_all t.queues.(w) toks)
      buckets

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
    enqueue_tokens e;
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
       skipped, via [e_done], at [close].  Everything else falls back to
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
    if Array.length e.e_tokens = 1 then confirm_direct t e
    else confirm_rendezvous e;
    Pool.count_submitted t.pool 1

  (* ---------------------------------------------------------------- *)
  (* Workers.                                                          *)

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

  (* A fully arrived shared read: run it and complete its barrier, which
     releases the writes gated behind it. *)
  let run_shared t e =
    run_entry t e;
    match e.e_barrier with Some b -> B.complete b | None -> ()

  (* Hand the fully arrived shared read [e] to an idle member: the first,
     in worker order, whose [q_idle] hint is set and, under its lock,
     still is (the caller's own hint is clear — it is running).  That
     worker is inside the [q_next] wait — the only waiter on [q_cv] then,
     since rollback and close wait only on a busy worker — so one signal
     wakes it, and it takes the slot before anything else; filling the
     slot clears its hint.  Only members are asked: a full-width scan has
     every worker as a member anyway, while handing a two-key read to an
     outside worker costs more than running it.  [false] when no member
     is idle: the caller runs the read itself. *)
  let hand_off e =
    let rec from k =
      k < Array.length e.e_tokens
      &&
      let h = e.e_tokens.(k).t_queue in
      (h.q_idle
      && begin
           P.Mutex.lock h.q_m;
           let free = h.q_idle in
           if free then begin
             h.q_idle <- false;
             h.q_slot <- Some e;
             P.Condition.signal h.q_cv
           end;
           P.Mutex.unlock h.q_m;
           free
         end)
      || from (k + 1)
    in
    from 0 && (Probe.read_handoff (); true)

  (* Crash requeue of a handed read: back into the slot, for the respawned
     worker to run first. *)
  let slot_refill q e =
    P.Mutex.lock q.q_m;
    q.q_slot <- Some e;
    P.Mutex.unlock q.q_m

  (* A fetched token, past the fault hook.  The last arriver at a shared
     read hands it off when the read was followed by another shared read
     in its queue: running it here would leave the next one — and every
     later one in the burst — waiting on this worker again.  An exclusive
     rendezvous always runs on its designated worker: its members are
     held in the barrier, and a helper would race the designated worker's
     next token. *)
  let run_token t i tok hand =
    let e = tok.t_entry in
    match e.e_barrier with
    | None -> run_entry t e
    | Some b -> (
        match B.arrive b ~worker:i with
        | `Execute -> if not (hand && hand_off e) then run_shared t e
        | `Done | `Pass -> ())

  (* The pool's item callbacks: a crash returns the fetched work where it
     came from — a token to the front of its queue, a handed read to the
     slot, for the respawned worker to run first. *)
  let requeue t i w =
    let q = t.queues.(i - 1) in
    (match w with
    | Speculative tok | Fetched (tok, _) -> q_push_front q tok
    | Handed e -> slot_refill q e);
    Probe.requeue ()

  let run t i = function
    | Speculative tok -> run_spec t t.queues.(i - 1) tok
    | Fetched (tok, hand) -> run_token t i tok hand
    | Handed e -> run_shared t e

  (* ---------------------------------------------------------------- *)
  (* Life cycle.                                                       *)

  let start_full ?max_size ?classes ?(repair = true) ?(write_gate = true)
      ?speculate ?on_commit ?fault ~workers ~execute () =
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
                q_reads = [];
                q_nreads = 0;
                q_prune_at = 64;
                q_idle = false;
                q_slot = None;
              });
        window = P.Semaphore.create max_size;
        repair;
        write_gate;
        execute;
        speculate;
        on_commit;
        pool = Pool.create ?fault ~workers ();
        dropped = P.Atomic.make 0;
        spec_execs = P.Atomic.make 0;
        redos = P.Atomic.make 0;
        redo_depth = P.Atomic.make 0;
        wmax = max_size;
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
      ~requeue:(requeue t) ~run:(run t) ();
    t

  let start ?max_size ~workers ~execute () =
    start_full ?max_size ~workers ~execute ()

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

  (* Close every worker queue.  Unconfirmed speculations that already
     executed are rolled back — close discards unconfirmed speculation,
     and with execution-time optimism discarding means undoing — then
     counted dropped, like the still-queued pending tokens the workers
     drop on their way out. *)
  let close t =
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
            if not (P.Atomic.get en.e_done) then begin
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

  (* Two stuck shapes: a partial rendezvous (a member never arrived), and a
     fully arrived shared read left in a slot — a live worker takes its
     slot before parking, so at a halt only a crash leaves one there.  A
     member arrives right after popping its token, and a crash before the
     arrival pushes the token back, so at a halt every partial rendezvous
     still has an unarrived member's token queued: scanning the queues
     finds them all.  Reported oldest position first. *)
  let stalled_barriers t =
    let partial e =
      match e.e_barrier with
      | Some b
        when (not (B.completed b))
             && (not (P.Atomic.get e.e_done))
             && B.arrived b > 0
             && B.arrived b < B.size b ->
          Some
            ( e.e_pos,
              Printf.sprintf "class-barrier stuck at %d/%d arrivals (%s)"
                (B.arrived b) (B.size b)
                (match B.designated b with
                | Some d -> Printf.sprintf "designated w%d" d
                | None -> "shared") )
      | _ -> None
    in
    let queues = Array.to_list t.queues in
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
            queues))
    @ List.filter_map
        (fun q ->
          match q.q_slot with
          | Some e when not (P.Atomic.get e.e_done) ->
              Some
                (Printf.sprintf
                   "class-barrier stuck: shared read handed to crashed \
                    worker %d"
                   q.q_worker)
          | Some _ | None -> None)
        queues

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
        if strict && Option.is_some q.q_slot then
          err "queue w%d: a handed shared read left in its slot" q.q_worker;
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
