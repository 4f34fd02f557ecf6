(** The metrics registry: cheap counters and virtual-time histograms filled
    by the probe layer ({!Probe}) while a simulation runs.

    A registry is {e activated} ({!enable}) for the duration of a run and
    deactivated afterwards; every probe is a no-op while no registry is
    active, so instrumented code pays one pointer read on the disabled
    path.  Recording never performs engine effects — counters and histogram
    buckets are plain mutations — so activating a registry cannot change
    virtual time, event order, or anything else a simulation computes.
    (The determinism test in [test/test_obs.ml] checks exactly this.)

    Virtual-time sources are injected: the harness passes [now] (typically
    [Engine.now]) and [track] (typically [Engine.running_tag]) when it
    builds the registry, so this library depends on no simulator
    internals.  All recorded durations are in the unit [now] returns —
    virtual seconds under the simulation platform, logical decision-point
    counts under the model-checking platform. *)

type counters = {
  (* Blocking layer (recorded by the simulated primitives). *)
  mutable lock_acquisitions : int;
  mutable lock_contended : int;  (* acquisitions that had to park *)
  mutable lock_wait : float;  (* total time parked waiting for a mutex *)
  mutable lock_hold : float;  (* total time mutexes were held *)
  mutable cond_waits : int;
  mutable cond_signals : int;
  mutable sem_parks : int;  (* suspensions in semaphore acquire *)
  mutable sem_wakes : int;  (* direct token handoffs to a parked process *)
  mutable sem_wait : float;  (* total time parked on semaphores *)
  mutable close_tokens : int;  (* tokens flooded by COS close *)
  (* Nonblocking layer. *)
  mutable cas_attempts : int;
  mutable cas_successes : int;
  (* Work-kind charges (every [P.work] call, regardless of operation). *)
  mutable work_visit : int;
  mutable work_conflict : int;
  mutable work_alloc : int;
  mutable work_marshal : int;
  mutable work_hash : int;
  mutable work_fault : int;
  (* Per-operation traversal footprints, reported by the COS probes. *)
  mutable insert_ops : int;
  mutable insert_visits : int;
  mutable get_ops : int;
  mutable get_visits : int;
  mutable remove_ops : int;
  mutable remove_visits : int;
  (* Implementation-specific contended-path events. *)
  mutable helped_removals : int;  (* physical unlinks helped by insert *)
  mutable rescans : int;  (* get retry loops: token's node taken over *)
  mutable coupling_steps : int;  (* lock-coupling hand-over-hand steps *)
  mutable monitor_sections : int;  (* monitor/segment critical sections *)
  (* Delivery batching. *)
  mutable batches : int;
  mutable batched_cmds : int;
  (* Fault injection (recorded by the Psmr_fault facade and the runtime's
     degradation paths; all zero on fault-free runs). *)
  mutable requeues : int;  (* COS exe -> rdy demotions of orphaned commands *)
  mutable fault_worker_crashes : int;
  mutable fault_worker_stalls : int;
  mutable fault_worker_slowdowns : int;
  mutable fault_net_drops : int;
  mutable fault_net_dups : int;
  mutable fault_net_delays : int;
  mutable fault_replica_crashes : int;
  mutable fault_recoveries : int;
  (* Early scheduling (lib/early): class-map dispatch and the optimistic
     fast path.  All zero for COS-backed runs. *)
  mutable class_direct : int;  (* single-queue fast-path dispatches *)
  mutable class_barriers : int;  (* cross-class rendezvous commands *)
  mutable barrier_tokens : int;  (* tokens enqueued for those rendezvous *)
  mutable spec_confirms : int;  (* optimistic deliveries confirmed in place *)
  mutable spec_repairs : int;  (* confirmations that found a mis-speculation *)
  mutable spec_revoked : int;  (* commands revoked and re-enqueued by repair *)
  mutable spec_execs : int;  (* commands executed speculatively *)
  mutable spec_rollbacks : int;  (* rollback events (repairs that undid work) *)
  mutable spec_undone : int;  (* executed commands undone by those rollbacks *)
  mutable spec_redos : int;  (* re-executions after a rollback *)
  mutable spec_redo_depth : int;  (* max executions of any single command *)
  (* Partitioned ordering (lib/broadcast Pmerge/Partition).  All zero on
     single-sequencer runs. *)
  mutable part_singles : int;  (* single-partition commands emitted *)
  mutable part_crosses : int;  (* cross-partition commands emitted *)
  mutable part_holes : int;  (* cycle tie-breaks / discarded occurrences *)
}

let fresh_counters () =
  {
    lock_acquisitions = 0;
    lock_contended = 0;
    lock_wait = 0.0;
    lock_hold = 0.0;
    cond_waits = 0;
    cond_signals = 0;
    sem_parks = 0;
    sem_wakes = 0;
    sem_wait = 0.0;
    close_tokens = 0;
    cas_attempts = 0;
    cas_successes = 0;
    work_visit = 0;
    work_conflict = 0;
    work_alloc = 0;
    work_marshal = 0;
    work_hash = 0;
    work_fault = 0;
    insert_ops = 0;
    insert_visits = 0;
    get_ops = 0;
    get_visits = 0;
    remove_ops = 0;
    remove_visits = 0;
    helped_removals = 0;
    rescans = 0;
    coupling_steps = 0;
    monitor_sections = 0;
    batches = 0;
    batched_cmds = 0;
    requeues = 0;
    fault_worker_crashes = 0;
    fault_worker_stalls = 0;
    fault_worker_slowdowns = 0;
    fault_net_drops = 0;
    fault_net_dups = 0;
    fault_net_delays = 0;
    fault_replica_crashes = 0;
    fault_recoveries = 0;
    class_direct = 0;
    class_barriers = 0;
    barrier_tokens = 0;
    spec_confirms = 0;
    spec_repairs = 0;
    spec_revoked = 0;
    spec_execs = 0;
    spec_rollbacks = 0;
    spec_undone = 0;
    spec_redos = 0;
    spec_redo_depth = 0;
    part_singles = 0;
    part_crosses = 0;
    part_holes = 0;
  }

type t = {
  c : counters;
  delivery_ready : Psmr_util.Histogram.t;
      (* per command: insert call to promotion (deps all removed) *)
  ready_dispatch : Psmr_util.Histogram.t;
      (* per command: promotion to a worker reserving it in [get] *)
  dispatch_executed : Psmr_util.Histogram.t;
      (* per command: reservation to execution completed *)
  cross_stall : Psmr_util.Histogram.t;
      (* per cross-partition command: first stream sighting to emission *)
  now : unit -> float;
  track : unit -> int;
  trace : Trace.t option;
}

let make ?(now = fun () -> 0.0) ?(track = fun () -> 0) ?trace () =
  {
    c = fresh_counters ();
    delivery_ready = Psmr_util.Histogram.create ();
    ready_dispatch = Psmr_util.Histogram.create ();
    dispatch_executed = Psmr_util.Histogram.create ();
    cross_stall = Psmr_util.Histogram.create ();
    now;
    track;
    trace;
  }

(* The active registry.  A plain global: activation is a harness-level,
   whole-run decision, and the simulation platforms are single-threaded. *)
let active : t option ref = ref None

let enable t = active := Some t
let disable () = active := None

let counters t = t.c
let trace t = t.trace
let now t = t.now
let track t = t.track
let delivery_ready t = t.delivery_ready
let ready_dispatch t = t.ready_dispatch
let dispatch_executed t = t.dispatch_executed
let cross_stall t = t.cross_stall

let histograms t =
  [
    ("delivery_ready", t.delivery_ready);
    ("ready_dispatch", t.ready_dispatch);
    ("dispatch_executed", t.dispatch_executed);
    ("cross_stall", t.cross_stall);
  ]

(* One (name, value) per counter, in declaration order. *)
let counter_assoc c =
  let i name v = (name, float_of_int v) in
  [
    i "lock_acquisitions" c.lock_acquisitions;
    i "lock_contended" c.lock_contended;
    ("lock_wait", c.lock_wait);
    ("lock_hold", c.lock_hold);
    i "cond_waits" c.cond_waits;
    i "cond_signals" c.cond_signals;
    i "sem_parks" c.sem_parks;
    i "sem_wakes" c.sem_wakes;
    ("sem_wait", c.sem_wait);
    i "close_tokens" c.close_tokens;
    i "cas_attempts" c.cas_attempts;
    i "cas_successes" c.cas_successes;
    i "work_visit" c.work_visit;
    i "work_conflict" c.work_conflict;
    i "work_alloc" c.work_alloc;
    i "work_marshal" c.work_marshal;
    i "work_hash" c.work_hash;
    i "work_fault" c.work_fault;
    i "insert_ops" c.insert_ops;
    i "insert_visits" c.insert_visits;
    i "get_ops" c.get_ops;
    i "get_visits" c.get_visits;
    i "remove_ops" c.remove_ops;
    i "remove_visits" c.remove_visits;
    i "helped_removals" c.helped_removals;
    i "rescans" c.rescans;
    i "coupling_steps" c.coupling_steps;
    i "monitor_sections" c.monitor_sections;
    i "batches" c.batches;
    i "batched_cmds" c.batched_cmds;
    i "requeues" c.requeues;
    i "fault_worker_crashes" c.fault_worker_crashes;
    i "fault_worker_stalls" c.fault_worker_stalls;
    i "fault_worker_slowdowns" c.fault_worker_slowdowns;
    i "fault_net_drops" c.fault_net_drops;
    i "fault_net_dups" c.fault_net_dups;
    i "fault_net_delays" c.fault_net_delays;
    i "fault_replica_crashes" c.fault_replica_crashes;
    i "fault_recoveries" c.fault_recoveries;
    i "class_direct" c.class_direct;
    i "class_barriers" c.class_barriers;
    i "barrier_tokens" c.barrier_tokens;
    i "spec_confirms" c.spec_confirms;
    i "spec_repairs" c.spec_repairs;
    i "spec_revoked" c.spec_revoked;
    i "spec_execs" c.spec_execs;
    i "spec_rollbacks" c.spec_rollbacks;
    i "spec_undone" c.spec_undone;
    i "spec_redos" c.spec_redos;
    i "spec_redo_depth" c.spec_redo_depth;
    i "part_singles" c.part_singles;
    i "part_crosses" c.part_crosses;
    i "part_holes" c.part_holes;
  ]

(* The derived statistics of one histogram. *)
let histogram_stats h =
  let module H = Psmr_util.Histogram in
  [
    ("count", float_of_int (H.count h));
    ("p50", H.quantile h 0.50);
    ("p95", H.quantile h 0.95);
    ("p99", H.quantile h 0.99);
    ("p999", H.quantile h 0.999);
    ("mean", H.mean h);
    ("max", H.max_value h);
  ]

(* Flat numeric snapshot, one (name, value) per counter plus derived
   histogram statistics — the form the checker exposes to oracles and the
   tests compare. *)
let assoc t =
  counter_assoc t.c
  @ List.concat_map
      (fun (name, h) ->
        List.map (fun (k, v) -> (name ^ "_" ^ k, v)) (histogram_stats h))
      (histograms t)

(* Counters are exact; durations and histogram statistics keep nine
   significant digits, compact and deterministic across identical runs. *)
let to_json ?cost_model t =
  let module J = Psmr_util.Json in
  let section l =
    J.Obj
      (List.map
         (fun (n, v) ->
           (n, if Float.is_integer v && Float.abs v < 1e15 then J.Num v
               else J.digits 9 v))
         l)
  in
  J.Obj
    ([
       ("counters", section (counter_assoc t.c));
       ( "latency_virtual_seconds",
         J.Obj
           (List.map
              (fun (name, h) -> (name, section (histogram_stats h)))
              (histograms t)) );
     ]
    @ Option.fold ~none:[]
        ~some:(fun cm -> [ ("cost_model_seconds", section cm) ])
        cost_model)
