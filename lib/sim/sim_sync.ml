(** Synchronization primitives for simulated processes, shared by the timed
    simulator and the model checker.

    All primitives keep FIFO waiter queues and hand ownership (or semaphore
    tokens) directly to the longest-waiting process, so simulated scheduling
    is fair and deterministic.  Because the engine is single-threaded, each
    primitive's bookkeeping is naturally atomic; only the hooks perform
    engine effects around it.

    Under the timed hooks a process resumed after blocking additionally pays
    [costs.wakeup], modelling the OS/futex round trip.  This asymmetry —
    blocking synchronization pays wake-up latency, nonblocking code pays
    only CAS costs — is the mechanism behind the coarse/fine vs. lock-free
    separation in the paper's figures. *)

module Probe = Psmr_obs.Probe

type op =
  | Lock | Unlock
  | Wait | Signal | Broadcast
  | Acquire | Release | Value
  | Get | Set | Exchange | Cas | Faa

module type HOOKS = sig
  type obj

  val engine : Engine.t
  val obj : unit -> obj
  val enter : obj -> op -> unit
  val woken : unit -> unit
  val released : obj -> unit
  val acquired : obj -> unit
  val written : obj -> plain:bool -> unit
end

module Make (H : HOOKS) = struct
  let self () = Engine.running_tag H.engine

  module Mutex = struct
    type t = {
      h : H.obj;
      mutable locked : bool;
      mutable owner : int;  (* the holder's pid; [nobody] while in handoff *)
      mutable acquired_at : float;  (* meaningful while a registry is active *)
      waiters : (unit -> unit) Queue.t;
    }

    let nobody = -1

    let create () =
      {
        h = H.obj ();
        locked = false;
        owner = nobody;
        acquired_at = 0.0;
        waiters = Queue.create ();
      }

    let lock m =
      H.enter m.h Lock;
      if not m.locked then begin
        m.locked <- true;
        if Probe.enabled () then begin
          Probe.mutex_acquired ~contended:false ~waited:0.0;
          m.acquired_at <- Probe.now ()
        end
      end
      else begin
        let t0 = Probe.now () in
        Engine.suspend (fun resume -> Queue.push resume m.waiters);
        (* Ownership was handed over by the unlocker. *)
        H.woken ();
        if Probe.enabled () then
          Probe.mutex_acquired ~contended:true ~waited:(Probe.now () -. t0)
      end;
      m.owner <- self ();
      (* Free or handed over, the previous holder's release is in [m.h]. *)
      H.acquired m.h

    (* What OCaml's error-checking mutex raises for an unheld mutex and for
       a non-owner alike.  Without it a stray unlock would hand the mutex to
       a waiter while the holder is still in its critical section. *)
    let check_owner m what =
      if m.owner <> self () then
        raise (Sys_error (what ^ ": Operation not permitted"))

    (* Release with no engine effect, so it can run inside a [suspend]
       registration (see [Condition.wait]).  The probes are pure
       mutation. *)
    let unlock_transfer m =
      m.owner <- nobody;
      if Probe.enabled () then begin
        Probe.mutex_released ~since:m.acquired_at;
        (* On handoff the next owner's hold starts at the transfer. *)
        m.acquired_at <- Probe.now ()
      end;
      match Queue.pop m.waiters with
      | resume -> resume () (* stays locked: direct handoff *)
      | exception Queue.Empty -> m.locked <- false

    let unlock m =
      check_owner m "Mutex.unlock";
      H.enter m.h Unlock;
      H.released m.h;
      unlock_transfer m
  end

  module Condition = struct
    type t = { h : H.obj; waiters : (unit -> unit) Queue.t }

    let create () = { h = H.obj (); waiters = Queue.create () }

    let wait c (m : Mutex.t) =
      Mutex.check_owner m "Condition.wait";
      Probe.cond_wait ();
      H.enter c.h Wait;
      (* Publish before releasing the mutex; enqueueing and releasing then
         happen atomically inside the suspension (the registration must not
         perform engine effects). *)
      H.released m.h;
      Engine.suspend (fun resume ->
          Queue.push resume c.waiters;
          Mutex.unlock_transfer m);
      H.woken ();
      H.acquired c.h;
      Mutex.lock m

    let wake c op =
      Probe.cond_signal ();
      H.enter c.h op;
      H.released c.h

    let signal c =
      wake c Signal;
      match Queue.pop c.waiters with
      | resume -> resume ()
      | exception Queue.Empty -> ()

    let broadcast c =
      wake c Broadcast;
      let pending = Queue.copy c.waiters in
      Queue.clear c.waiters;
      Queue.iter (fun resume -> resume ()) pending
  end

  module Semaphore = struct
    type t = { h : H.obj; mutable count : int; waiters : (unit -> unit) Queue.t }

    let create n =
      if n < 0 then invalid_arg "Semaphore.create: negative count";
      { h = H.obj (); count = n; waiters = Queue.create () }

    let acquire ?(n = 1) s =
      (* One entry regardless of [n]: multi-token acquisition is the
         batched-insert amortization.  Each token still missing costs a
         suspension (and thus a wake-up) of its own, so releases interleave
         with multi-token waits. *)
      H.enter s.h Acquire;
      for _ = 1 to n do
        if s.count > 0 then s.count <- s.count - 1
        else begin
          let t0 = Probe.now () in
          Engine.suspend (fun resume -> Queue.push resume s.waiters);
          (* The token was handed to us by [release]. *)
          H.woken ();
          if Probe.enabled () then Probe.sem_park ~waited:(Probe.now () -. t0)
        end
      done;
      H.acquired s.h

    let release ?(n = 1) s =
      H.enter s.h Release;
      H.released s.h;
      for _ = 1 to n do
        match Queue.pop s.waiters with
        | resume ->
            Probe.sem_wake ();
            resume () (* token handoff *)
        | exception Queue.Empty -> s.count <- s.count + 1
      done

    let value s =
      H.enter s.h Value;
      s.count
  end

  (* Sequentially consistent atomics synchronize: every read folds in the
     prior writes (the acquire edge), every store publishes. *)
  module Atomic = struct
    type 'a t = { h : H.obj; mutable v : 'a }

    let make v = { h = H.obj (); v }

    let get a =
      H.enter a.h Get;
      H.acquired a.h;
      a.v

    let set a x =
      H.enter a.h Set;
      H.written a.h ~plain:true;
      a.v <- x

    let exchange a x =
      H.enter a.h Exchange;
      H.acquired a.h;
      H.written a.h ~plain:false;
      let old = a.v in
      a.v <- x;
      old

    let compare_and_set a expected desired =
      H.enter a.h Cas;
      H.acquired a.h;
      let ok = a.v == expected in
      if ok then begin
        H.written a.h ~plain:false;
        a.v <- desired
      end;
      Probe.cas ~success:ok;
      ok

    let fetch_and_add a d =
      H.enter a.h Faa;
      H.acquired a.h;
      H.written a.h ~plain:false;
      let old = a.v in
      a.v <- old + d;
      old
  end
end

(** A bank of processor cores: at most [cores] processes hold a slot at a
    time.  [use t d] models executing [d] seconds of computation.  FIFO
    admission. *)
module Cpu = struct
  type t = {
    cores : int;
    mutable busy : int;
    waiters : (unit -> unit) Queue.t;
    slots : bool array;  (* which core indices are occupied; tracing only *)
  }

  let create ~cores =
    if cores <= 0 then invalid_arg "Sim_sync.Cpu.create: cores must be positive";
    { cores; busy = 0; waiters = Queue.create (); slots = Array.make cores false }

  let acquire t =
    if t.busy < t.cores then t.busy <- t.busy + 1
    else Engine.suspend (fun resume -> Queue.push resume t.waiters)

  let release t =
    match Queue.pop t.waiters with
    | resume -> resume () (* slot handoff: busy count unchanged *)
    | exception Queue.Empty -> t.busy <- t.busy - 1

  (* For traces, computations are pinned to the lowest free core index so
     each occupies a concrete track.  Slot bookkeeping happens with no
     engine effects between [acquire] returning and the slot being marked
     (and between clearing and [release]), so admission order — and hence
     virtual time — is identical with tracing on or off. *)
  let use t d =
    acquire t;
    if Probe.tracing () then begin
      let slot = ref 0 in
      while !slot < t.cores && t.slots.(!slot) do incr slot done;
      let core = if !slot < t.cores then !slot else t.cores - 1 in
      t.slots.(core) <- true;
      let ts = Probe.now () in
      Engine.delay d;
      Probe.exec ~core ~ts ~dur:d;
      t.slots.(core) <- false;
      release t
    end
    else begin
      Engine.delay d;
      release t
    end
end
