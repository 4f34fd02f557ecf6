(** Probe layer: the hooks instrumented code calls.

    The metric table is declared here, one line per counter or histogram,
    grouped by layer; each probe is a body over the generic recorders of
    {!Table}, which return immediately when no registry is enabled, so the
    disabled path costs a pointer read per recorder.  None of these
    functions performs an engine effect — they only mutate the active
    registry — which is what lets the determinism test assert that metrics
    collection leaves virtual time untouched.

    This module is the {e only} observability API the runtime layers may
    use (enforced by [psmr_lint]): keeping the probe vocabulary closed
    makes the recorded events comparable across implementations. *)

module T = Table

(* Blocking primitives: locks, conditions and semaphores, recorded by the
   simulated and the model-checking platforms. *)
module Sync = struct
  let lock_acquisitions = T.counter "sync.lock_acquisitions"
  let lock_contended = T.counter "sync.lock_contended" (* had to park *)
  let lock_wait = T.counter "sync.lock_wait" (* time parked on mutexes *)
  let lock_hold = T.counter "sync.lock_hold" (* time mutexes were held *)
  let cond_waits = T.counter "sync.cond_waits"
  let cond_signals = T.counter "sync.cond_signals"
  let sem_parks = T.counter "sync.sem_parks" (* suspensions in acquire *)
  let sem_wakes = T.counter "sync.sem_wakes" (* direct token handoffs *)
  let sem_wait = T.counter "sync.sem_wait" (* time parked on semaphores *)
end

(* The nonblocking layer and work-kind charges (every [P.work] call). *)
module Platform = struct
  let cas_attempts = T.counter "platform.cas_attempts"
  let cas_successes = T.counter "platform.cas_successes"
  let work_visit = T.counter "platform.work_visit"
  let work_conflict = T.counter "platform.work_conflict"
  let work_alloc = T.counter "platform.work_alloc"
  let work_marshal = T.counter "platform.work_marshal"
  let work_hash = T.counter "platform.work_hash"
  let work_fault = T.counter "platform.work_fault"
end

(* COS operations with their traversal footprints, the
   implementation-specific contended paths, and delivery to ready. *)
module Cos = struct
  let insert_ops = T.counter "cos.insert_ops"
  let insert_visits = T.counter "cos.insert_visits"
  let get_ops = T.counter "cos.get_ops"
  let get_visits = T.counter "cos.get_visits"
  let remove_ops = T.counter "cos.remove_ops"
  let remove_visits = T.counter "cos.remove_visits"
  let helped_removals = T.counter "cos.helped_removals" (* by insert *)
  let rescans = T.counter "cos.rescans" (* get retries: node taken over *)
  let coupling_steps = T.counter "cos.coupling_steps" (* hand-over-hand *)
  let monitor_sections = T.counter "cos.monitor_sections"
  let close_tokens = T.counter "cos.close_tokens" (* flooded by close *)
  let requeues = T.counter "cos.requeues" (* exe -> rdy demotions *)

  (* per command: insert call to promotion (deps all removed) *)
  let delivery_ready = T.histogram "cos.delivery_ready"
end

(* Delivery batching and the dispatch half of the latency pipeline. *)
module Sched = struct
  let batches = T.counter "sched.batches"
  let batched_cmds = T.counter "sched.batched_cmds"

  (* per command: promotion to a worker reserving it *)
  let ready_dispatch = T.histogram "sched.ready_dispatch"

  (* per command: reservation to execution completed *)
  let dispatch_executed = T.histogram "sched.dispatch_executed"
end

(* Early scheduling (lib/early): class-map dispatch and the optimistic
   fast path. *)
module Early = struct
  let class_direct = T.counter "early.class_direct" (* fast-path dispatch *)
  let class_barriers = T.counter "early.class_barriers" (* rendezvous *)
  let barrier_tokens = T.counter "early.barrier_tokens" (* write tokens *)
  let spec_confirms = T.counter "early.spec_confirms"
  let spec_repairs = T.counter "early.spec_repairs"
  let spec_revoked = T.counter "early.spec_revoked"
  let spec_execs = T.counter "early.spec_execs"
  let spec_rollbacks = T.counter "early.spec_rollbacks"
  let spec_undone = T.counter "early.spec_undone"
  let spec_redos = T.counter "early.spec_redos"
  let spec_redo_depth = T.counter ~kind:`Max "early.spec_redo_depth"
end

(* The sequencer's cuts (lib/broadcast Abcast). *)
module Abcast = struct
  let batches = T.counter "abcast.batches"
  let batched_cmds = T.counter "abcast.batched_cmds"

  (* per command: enqueue at the leader to the cut of its batch *)
  let cut_wait = T.histogram "abcast.cut_wait"
end

(* Partitioned ordering (lib/broadcast Pmerge/Partition). *)
module Part = struct
  let singles = T.counter "part.singles"
  let crosses = T.counter "part.crosses"
  let holes = T.counter "part.holes" (* cycle tie-breaks *)

  (* per cross-partition command: first stream sighting to emission *)
  let cross_stall = T.histogram "part.cross_stall"
end

(* Fault injection, recorded by the Psmr_fault facade. *)
module Fault = struct
  let worker_crashes = T.counter "fault.worker_crashes"
  let worker_stalls = T.counter "fault.worker_stalls"
  let worker_slowdowns = T.counter "fault.worker_slowdowns"
  let net_drops = T.counter "fault.net_drops"
  let net_dups = T.counter "fault.net_dups"
  let net_delays = T.counter "fault.net_delays"
  let replica_crashes = T.counter "fault.replica_crashes"
end

let enabled () = match !T.active with Some _ -> true | None -> false

let tracing () = Option.bind !T.active T.trace <> None

let now () = match !T.active with Some m -> T.now m () | None -> 0.0
let track () = match !T.active with Some m -> T.track m () | None -> 0

(* Trace process ids: simulated cores on one track group, engine processes
   on another.  Fixed small integers keep exports comparable across runs. *)
let core_pid = 1
let proc_pid = 2

let mutex_acquired ~contended ~waited =
  T.incr Sync.lock_acquisitions;
  if contended then begin
    T.incr Sync.lock_contended;
    T.add_float Sync.lock_wait waited
  end

let mutex_released ~since =
  match !T.active with
  | None -> ()
  | Some m -> (
      let held = T.now m () -. since in
      T.add_float Sync.lock_hold held;
      match T.trace m with
      | Some tr when held > 0.0 ->
          Trace.slice tr ~name:"cs" ~pid:proc_pid ~tid:(T.track m ()) ~ts:since
            ~dur:held
      | _ -> ())

let cond_wait () = T.incr Sync.cond_waits
let cond_signal () = T.incr Sync.cond_signals

let sem_park ~waited =
  T.incr Sync.sem_parks;
  T.add_float Sync.sem_wait waited

let sem_wake () = T.incr Sync.sem_wakes

let cas ~success =
  T.incr Platform.cas_attempts;
  if success then T.incr Platform.cas_successes

let work kind =
  T.incr
    (match kind with
    | `Visit -> Platform.work_visit
    | `Conflict -> Platform.work_conflict
    | `Alloc -> Platform.work_alloc
    | `Marshal -> Platform.work_marshal
    | `Hash -> Platform.work_hash
    | `Fault -> Platform.work_fault)

(* One event counted, and its size added to a second counter. *)
let tally events size n =
  T.incr events;
  T.add size n

let insert_done ~visits = tally Cos.insert_ops Cos.insert_visits visits
let get_done ~visits = tally Cos.get_ops Cos.get_visits visits
let remove_done ~visits = tally Cos.remove_ops Cos.remove_visits visits
let helped_removal () = T.incr Cos.helped_removals
let rescan () = T.incr Cos.rescans
let coupling_step () = T.incr Cos.coupling_steps
let monitor_section () = T.incr Cos.monitor_sections
let close_tokens n = T.add Cos.close_tokens n
let requeue () = T.incr Cos.requeues
let ready_latency dt = T.observe Cos.delivery_ready dt
let batch n = tally Sched.batches Sched.batched_cmds n
let dispatch_latency dt = T.observe Sched.ready_dispatch dt
let exec_latency dt = T.observe Sched.dispatch_executed dt
let class_direct () = T.incr Early.class_direct

let class_barrier ~tokens =
  tally Early.class_barriers Early.barrier_tokens tokens

let spec_confirm () = T.incr Early.spec_confirms
let spec_repair ~revoked = tally Early.spec_repairs Early.spec_revoked revoked
let spec_exec () = T.incr Early.spec_execs
let spec_rollback ~undone = tally Early.spec_rollbacks Early.spec_undone undone
let spec_redo ~depth = tally Early.spec_redos Early.spec_redo_depth depth
let abcast_batch n = tally Abcast.batches Abcast.batched_cmds n
let abcast_cut_wait dt = T.observe Abcast.cut_wait dt
let part_single () = T.incr Part.singles
let part_cross () = T.incr Part.crosses
let part_hole () = T.incr Part.holes
let part_stall dt = T.observe Part.cross_stall dt

let fault kind =
  T.incr
    (match kind with
    | `Worker_crash -> Fault.worker_crashes
    | `Worker_stall -> Fault.worker_stalls
    | `Worker_slow -> Fault.worker_slowdowns
    | `Net_drop -> Fault.net_drops
    | `Net_dup -> Fault.net_dups
    | `Net_delay -> Fault.net_delays
    | `Replica_crash -> Fault.replica_crashes)

let exec ~core ~ts ~dur =
  match Option.bind !T.active T.trace with
  | Some tr -> Trace.slice tr ~name:"exec" ~pid:core_pid ~tid:core ~ts ~dur
  | None -> ()

let span ~name ~ts ~dur =
  match !T.active with
  | Some m -> (
      match T.trace m with
      | Some tr ->
          Trace.slice tr ~name ~pid:proc_pid ~tid:(T.track m ()) ~ts ~dur
      | None -> ())
  | None -> ()

(* The ten counters and three histograms [benchmark/layers.ml] reads as
   record fields; due for deletion once it reads them by name
   ([Metrics.value]). *)
module View = struct
  type counters = {
    work_marshal : int;
    lock_wait : float;
    cas_attempts : int;
    cas_successes : int;
    insert_ops : int;
    insert_visits : int;
    class_direct : int;
    class_barriers : int;
    spec_execs : int;
    spec_undone : int;
  }

  let counters m =
    let n c = int_of_float (T.get m c) in
    {
      work_marshal = n Platform.work_marshal;
      lock_wait = T.get m Sync.lock_wait;
      cas_attempts = n Platform.cas_attempts;
      cas_successes = n Platform.cas_successes;
      insert_ops = n Cos.insert_ops;
      insert_visits = n Cos.insert_visits;
      class_direct = n Early.class_direct;
      class_barriers = n Early.class_barriers;
      spec_execs = n Early.spec_execs;
      spec_undone = n Early.spec_undone;
    }

  let delivery_ready m = T.hist m Cos.delivery_ready
  let ready_dispatch m = T.hist m Sched.ready_dispatch
  let cross_stall m = T.hist m Part.cross_stall
end
