(** The checking platform: a third [Platform_intf.S] implementation, built
    on the deterministic DES engine of [Psmr_sim] with its FIFO event order
    replaced by a controlled scheduler (see [Engine.set_picker]).

    Every synchronization operation — mutex lock/unlock, condition
    wait/signal/broadcast, semaphore acquire/release, every atomic access,
    and [yield] — is a {e decision point}: the calling process yields to the
    engine, where the installed picker chooses which runnable process takes
    the next step.  Virtual time never advances, so every runnable process
    is a candidate at every step and the picker controls the entire
    interleaving.  Between two decision points a process runs atomically,
    which is exactly the granularity at which the real platform's
    primitives can interleave.

    On top of the schedule control the platform maintains a
    {e happens-before} oracle: per-process vector clocks, advanced across
    every mutex, semaphore, condition and atomic read-modify-write edge.
    Plain [Atomic.set] stores are checked against the clock of the cell's
    previous writers — two unordered plain stores to the same cell are
    reported as a race.  The COS implementations rely on single-writer
    disciplines for their plain stores (only the sequencing scheduler
    thread writes list pointers), and this check verifies exactly those
    disciplines under every explored schedule.

    The [ghost] mode supports oracles: while set, reads through the
    platform neither yield nor touch the clocks, so an invariant check can
    snapshot shared state between two scheduled operations without
    perturbing the schedule or the happens-before relation.  Blocking
    primitives raise in ghost mode — oracles must be read-only. *)

open Psmr_platform
module Engine = Psmr_sim.Engine
module Probe = Psmr_obs.Probe

type race = {
  op : string;
  cell : string;
  writer : int;
  prev_writer : int;
}

let pp_race ppf r =
  Format.fprintf ppf
    "data race: %s on %s by process %d unordered with previous write by \
     process %d"
    r.op r.cell r.writer r.prev_writer

type t = {
  engine : Engine.t;
  mutable ghost : bool;
  mutable tracing : bool;
  mutable ticket : int;  (* logical event counter for oracles *)
  mutable ops : int;  (* decision points taken *)
  mutable next_id : int;  (* object id counter *)
  clocks : (int, Vclock.t) Hashtbl.t;
  mutable races : race list;
  mutable oplog : (int * string) list;  (* reversed; only when [tracing] *)
}

let create engine =
  {
    engine;
    ghost = false;
    tracing = false;
    ticket = 0;
    ops = 0;
    next_id = 0;
    clocks = Hashtbl.create 32;
    races = [];
    oplog = [];
  }

let ticket t =
  let k = t.ticket in
  t.ticket <- t.ticket + 1;
  k

let ops t = t.ops
let races t = List.rev t.races
let oplog t = List.rev t.oplog
let set_tracing t on = t.tracing <- on

let with_ghost t f =
  t.ghost <- true;
  Fun.protect ~finally:(fun () -> t.ghost <- false) f

let clock_of t pid =
  match Hashtbl.find_opt t.clocks pid with
  | Some c -> c
  | None ->
      let c = Vclock.create () in
      Hashtbl.replace t.clocks pid c;
      c

let make (ctx : t) : (module Platform_intf.S) =
  (module struct
    let name = "check"

    let pid () = Engine.running_tag ctx.engine

    (* A decision point: yield to the controlled scheduler, then perform
       the operation atomically.  Outside any process (harness setup code)
       and in ghost mode this is a no-op. *)
    let point desc =
      if (not ctx.ghost) && pid () <> 0 then begin
        ctx.ops <- ctx.ops + 1;
        Engine.yield ();
        if ctx.tracing then ctx.oplog <- (pid (), desc) :: ctx.oplog
      end

    let no_ghost what =
      if ctx.ghost then
        failwith
          (Printf.sprintf
             "Check_platform: %s called in ghost (oracle) mode — oracles \
              must be read-only"
             what)

    let fresh_id () =
      ctx.next_id <- ctx.next_id + 1;
      ctx.next_id

    let my_clock () = clock_of ctx (pid ())

    (* Release edge: publish the caller's clock into [hb] and advance the
       caller past the release. *)
    let release_into hb =
      let c = my_clock () in
      Vclock.join hb c;
      Vclock.tick c (pid ())

    (* Acquire edge: fold the published clock into the caller's. *)
    let acquire_from hb = Vclock.join (my_clock ()) hb

    (* The probes the simulated primitives record; off in ghost mode. *)
    let probing () = (not ctx.ghost) && Probe.enabled ()

    module Mutex = struct
      type t = {
        id : int;
        mutable locked : bool;
        mutable acquired_at : float;  (* meaningful while probing *)
        waiters : (unit -> unit) Queue.t;
        hb : Vclock.t;
      }

      let create () =
        {
          id = fresh_id ();
          locked = false;
          acquired_at = 0.0;
          waiters = Queue.create ();
          hb = Vclock.create ();
        }

      let lock m =
        no_ghost "Mutex.lock";
        point (Printf.sprintf "mutex#%d.lock" m.id);
        if not m.locked then begin
          m.locked <- true;
          if probing () then begin
            Probe.mutex_acquired ~contended:false ~waited:0.0;
            m.acquired_at <- Probe.now ()
          end
        end
        else begin
          let t0 = Probe.now () in
          Engine.suspend (fun resume -> Queue.push resume m.waiters);
          if probing () then
            Probe.mutex_acquired ~contended:true ~waited:(Probe.now () -. t0)
        end;
        (* Ownership was free or handed over; either way the previous
           holder's clock is in [hb]. *)
        acquire_from m.hb

      (* Release without a decision point; must stay free of engine
         effects so it can run inside a [suspend] registration (see
         [Condition.wait]).  The probes are pure mutation. *)
      let unlock_transfer m =
        if probing () then begin
          Probe.mutex_released ~since:m.acquired_at;
          (* On handoff the next owner's hold starts at the transfer. *)
          m.acquired_at <- Probe.now ()
        end;
        match Queue.pop m.waiters with
        | resume -> resume () (* stays locked: direct handoff *)
        | exception Queue.Empty -> m.locked <- false

      let unlock m =
        no_ghost "Mutex.unlock";
        point (Printf.sprintf "mutex#%d.unlock" m.id);
        release_into m.hb;
        unlock_transfer m
    end

    module Condition = struct
      type t = {
        id : int;
        waiters : (unit -> unit) Queue.t;
        hb : Vclock.t;
      }

      let create () =
        { id = fresh_id (); waiters = Queue.create (); hb = Vclock.create () }

      let wait c (m : Mutex.t) =
        no_ghost "Condition.wait";
        point (Printf.sprintf "cond#%d.wait" c.id);
        if probing () then Probe.cond_wait ();
        (* Publish before releasing the mutex: enqueueing and unlocking
           happen atomically inside the suspension. *)
        release_into m.hb;
        Engine.suspend (fun resume ->
            Queue.push resume c.waiters;
            Mutex.unlock_transfer m);
        acquire_from c.hb;
        Mutex.lock m

      let signal c =
        no_ghost "Condition.signal";
        point (Printf.sprintf "cond#%d.signal" c.id);
        if probing () then Probe.cond_signal ();
        release_into c.hb;
        match Queue.pop c.waiters with
        | resume -> resume ()
        | exception Queue.Empty -> ()

      let broadcast c =
        no_ghost "Condition.broadcast";
        point (Printf.sprintf "cond#%d.broadcast" c.id);
        if probing () then Probe.cond_signal ();
        release_into c.hb;
        let pending = Queue.copy c.waiters in
        Queue.clear c.waiters;
        Queue.iter (fun resume -> resume ()) pending
    end

    module Semaphore = struct
      type t = {
        id : int;
        mutable count : int;
        waiters : (unit -> unit) Queue.t;
        hb : Vclock.t;
      }

      let create n =
        if n < 0 then
          invalid_arg "Check_platform.Semaphore.create: negative count";
        {
          id = fresh_id ();
          count = n;
          waiters = Queue.create ();
          hb = Vclock.create ();
        }

      let acquire ?(n = 1) s =
        no_ghost "Semaphore.acquire";
        point (Printf.sprintf "sem#%d.acquire" s.id);
        (* One decision point per call; each missing token suspends
           separately, so releases interleave with multi-token waits. *)
        for _ = 1 to n do
          if s.count > 0 then s.count <- s.count - 1
          else begin
            let t0 = Probe.now () in
            Engine.suspend (fun resume -> Queue.push resume s.waiters);
            if probing () then Probe.sem_park ~waited:(Probe.now () -. t0)
          end
        done;
        acquire_from s.hb

      let release ?(n = 1) s =
        no_ghost "Semaphore.release";
        point (Printf.sprintf "sem#%d.release" s.id);
        release_into s.hb;
        for _ = 1 to n do
          match Queue.pop s.waiters with
          | resume ->
              if probing () then Probe.sem_wake ();
              resume () (* token handoff *)
          | exception Queue.Empty -> s.count <- s.count + 1
        done

      let value s =
        point (Printf.sprintf "sem#%d.value" s.id);
        s.count
    end

    module Atomic = struct
      type 'a t = {
        id : int;
        mutable v : 'a;
        wc : Vclock.t;  (* join of every writer's clock at its write *)
        mutable last_writer : int;
      }

      let make v =
        { id = fresh_id (); v; wc = Vclock.create (); last_writer = 0 }

      let get a =
        point (Printf.sprintf "atomic#%d.get" a.id);
        (* Sequentially consistent atomics synchronize: a read folds in
           every prior write's clock. *)
        if not ctx.ghost then acquire_from a.wc;
        a.v

      let write_edge ~op a =
        let c = my_clock () in
        let p = pid () in
        if
          op = "set" && a.last_writer <> 0 && a.last_writer <> p
          && not (Vclock.leq a.wc c)
        then
          ctx.races <-
            {
              op = Printf.sprintf "Atomic.%s" op;
              cell = Printf.sprintf "atomic#%d" a.id;
              writer = p;
              prev_writer = a.last_writer;
            }
            :: ctx.races;
        Vclock.join a.wc c;
        a.last_writer <- p;
        Vclock.tick c p

      let set a x =
        point (Printf.sprintf "atomic#%d.set" a.id);
        if not ctx.ghost then write_edge ~op:"set" a;
        a.v <- x

      let exchange a x =
        point (Printf.sprintf "atomic#%d.exchange" a.id);
        if not ctx.ghost then begin
          acquire_from a.wc;
          write_edge ~op:"exchange" a
        end;
        let old = a.v in
        a.v <- x;
        old

      let compare_and_set a expected desired =
        point (Printf.sprintf "atomic#%d.cas" a.id);
        if not ctx.ghost then acquire_from a.wc;
        let ok = a.v == expected in
        if ok then begin
          if not ctx.ghost then write_edge ~op:"cas" a;
          a.v <- desired
        end;
        if not ctx.ghost then Probe.cas ~success:ok;
        ok

      let fetch_and_add a d =
        point (Printf.sprintf "atomic#%d.faa" a.id);
        if not ctx.ghost then begin
          acquire_from a.wc;
          write_edge ~op:"faa" a
        end;
        let old = a.v in
        a.v <- old + d;
        old
    end

    let spawn ?name f =
      no_ghost "spawn";
      let parent = pid () in
      let child = Engine.spawn_tagged ctx.engine ?name f in
      let pc = clock_of ctx parent in
      let cc = clock_of ctx child in
      Vclock.join cc pc;
      Vclock.tick cc child;
      Vclock.tick pc parent

    let yield () = point "yield"

    (* Virtual time never advances under the checker; expose the logical
       event counter so relative ordering is still observable. *)
    let now () = float_of_int ctx.ticket

    let sleep _ = point "sleep"
    let after _ f = spawn f
    let work (_ : Platform_intf.work_kind) = ()
  end)

type outcome = {
  completed : bool;
  violations : string list;
  decisions : int;
  truncated : bool;
  choices : int array;  (* the chosen process id at every decision point *)
  trace_hash : int64;
  oplog : (int * string) list;  (* populated when [trace] *)
  metrics : (string * float) list;  (* populated when [metrics] *)
}

exception Truncated

let hash_choices (choices : int array) =
  (* FNV-1a, 64-bit. *)
  let h = ref 0xcbf29ce484222325L in
  Array.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (c land 0xffff));
      h := Int64.mul !h 0x100000001b3L)
    choices;
  !h

let default_max_steps = 50_000

let run ?(max_steps = default_max_steps) ?(trace = false) ?(metrics = false)
    ~(pick : last:int -> int array -> int) setup =
  let engine = Engine.create () in
  let ctx = create engine in
  set_tracing ctx trace;
  (* Under the checker virtual time never advances; the decision-point
     counter is the closest monotone notion of "when", so latencies come
     out in decision points rather than seconds. *)
  let registry =
    if metrics then
      Some
        (Psmr_obs.Metrics.make
           ~now:(fun () -> float_of_int (ops ctx))
           ~track:(fun () -> Engine.running_tag engine)
           ())
    else None
  in
  let violations = ref [] in
  let viol s = violations := s :: !violations in
  let oracles = setup ctx (make ctx) ~viol in
  let decisions = ref 0 in
  let choices = ref [] in
  let last = ref 0 in
  let truncated = ref false in
  Engine.set_picker engine
    (Some
       (fun tags ->
         incr decisions;
         if !decisions > max_steps then raise Truncated;
         let idx = pick ~last:!last tags in
         let idx = if idx < 0 || idx >= Array.length tags then 0 else idx in
         last := tags.(idx);
         choices := tags.(idx) :: !choices;
         idx));
  Option.iter Psmr_obs.Metrics.enable registry;
  Fun.protect
    ~finally:(fun () ->
      if Option.is_some registry then Psmr_obs.Metrics.disable ())
    (fun () ->
      try Engine.run engine with
      | Truncated -> truncated := true
      | e -> viol ("uncaught exception: " ^ Printexc.to_string e));
  (* A truncated run stopped mid-program: no post-run oracle applies. *)
  let completed = (not !truncated) && oracles () in
  List.iter (fun r -> viol (Format.asprintf "%a" pp_race r)) (races ctx);
  let choices = Array.of_list (List.rev !choices) in
  {
    completed;
    violations = List.rev !violations;
    decisions = !decisions;
    truncated = !truncated;
    choices;
    trace_hash = hash_choices choices;
    oplog = oplog ctx;
    metrics =
      (match registry with
      | Some m -> Psmr_obs.Metrics.assoc m
      | None -> []);
  }
