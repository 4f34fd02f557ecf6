(** The checking platform: a third [Platform_intf.S] implementation, built
    on the deterministic DES engine of [Psmr_sim] with its FIFO event order
    replaced by a controlled scheduler (see [Engine.set_picker]).  Its
    primitives are the timed simulator's own ([Sim_sync.Make]); this module
    supplies the hooks, the context and the run scaffold.

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
module Sim_sync = Psmr_sim.Sim_sync

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

(* The per-object state: an id handed out in creation order (it names the
   object in the oplog) and the object's happens-before clock — for a
   blocking primitive the clock its last release published, for an atomic
   the join of every writer's clock at its write. *)
type cell = { id : int; hb : Vclock.t; mutable last_writer : int }

let op_name (c : cell) (op : Sim_sync.op) =
  let kind =
    match op with
    | Lock | Unlock -> "mutex"
    | Wait | Signal | Broadcast -> "cond"
    | Acquire | Release | Value -> "sem"
    | Get | Set | Exchange | Cas | Faa -> "atomic"
  in
  let verb =
    match op with
    | Lock -> "lock" | Unlock -> "unlock"
    | Wait -> "wait" | Signal -> "signal" | Broadcast -> "broadcast"
    | Acquire -> "acquire" | Release -> "release" | Value -> "value"
    | Get -> "get" | Set -> "set" | Exchange -> "exchange" | Cas -> "cas"
    | Faa -> "faa"
  in
  Printf.sprintf "%s#%d.%s" kind c.id verb

let refuse_ghost what =
  failwith
    (Printf.sprintf
       "Check_platform: %s called in ghost (oracle) mode — oracles must be \
        read-only"
       what)

let make (ctx : t) : (module Platform_intf.S) =
  (module struct
    let name = "check"

    let pid () = Engine.running_tag ctx.engine

    (* A decision point: yield to the controlled scheduler, then perform
       the operation atomically.  Outside any process (harness setup code)
       and in ghost mode this is a no-op.  [describe] names the operation
       for the oplog; it runs only when tracing. *)
    let point describe =
      if (not ctx.ghost) && pid () <> 0 then begin
        ctx.ops <- ctx.ops + 1;
        Engine.yield ();
        if ctx.tracing then ctx.oplog <- (pid (), describe ()) :: ctx.oplog
      end

    let my_clock () = clock_of ctx (pid ())

    (* The checker's hooks: a decision point per operation, and the
       vector-clock edges; virtual time never advances. *)
    include Sim_sync.Make (struct
      type obj = cell

      let engine = ctx.engine

      let obj () =
        ctx.next_id <- ctx.next_id + 1;
        { id = ctx.next_id; hb = Vclock.create (); last_writer = 0 }

      let enter c (op : Sim_sync.op) =
        match op with
        | (Lock | Unlock | Wait | Signal | Broadcast | Acquire | Release)
          when ctx.ghost ->
            refuse_ghost (op_name c op)
        | _ -> point (fun () -> op_name c op)

      let woken () = ()

      (* Release edge: publish the caller's clock and advance the caller
         past the release. *)
      let released c =
        if not ctx.ghost then begin
          let mine = my_clock () in
          Vclock.join c.hb mine;
          Vclock.tick mine (pid ())
        end

      (* Acquire edge: fold the published clock into the caller's. *)
      let acquired c = if not ctx.ghost then Vclock.join (my_clock ()) c.hb

      (* A store publishes like a release; a plain [Atomic.set] unordered
         with the cell's previous writer is a race. *)
      let written c ~plain =
        if not ctx.ghost then begin
          let p = pid () in
          if
            plain && c.last_writer <> 0 && c.last_writer <> p
            && not (Vclock.leq c.hb (my_clock ()))
          then
            ctx.races <-
              {
                op = "Atomic.set";
                cell = Printf.sprintf "atomic#%d" c.id;
                writer = p;
                prev_writer = c.last_writer;
              }
              :: ctx.races;
          c.last_writer <- p;
          released c
        end
    end)

    let spawn ?name f =
      if ctx.ghost then refuse_ghost "spawn";
      let parent = pid () in
      let child = Engine.spawn_tagged ctx.engine ?name f in
      let pc = clock_of ctx parent in
      let cc = clock_of ctx child in
      Vclock.join cc pc;
      Vclock.tick cc child;
      Vclock.tick pc parent

    let yield () = point (fun () -> "yield")

    (* Virtual time never advances under the checker; expose the logical
       event counter so relative ordering is still observable. *)
    let now () = float_of_int ctx.ticket

    let sleep _ = point (fun () -> "sleep")
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
