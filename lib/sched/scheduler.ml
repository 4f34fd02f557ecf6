(** The generic parallel-SMR execution runtime — the paper's Algorithm 1.

    A single scheduler thread (the "parallelizer") inserts delivered
    commands into a COS; a pool of worker threads loops over
    [get; execute; remove].  The runtime is agnostic to which COS
    implementation and which platform it runs on.

    Fault tolerance: before executing a reserved command each worker
    consults the {!Psmr_fault.Fault} facade (one pointer read when no
    fault plan is armed).  A simulated core crash requeues the orphaned
    command (COS [exe -> rdy] demotion, so dependents and the conflict
    order are untouched), the dead worker leaves the pool, and — when the
    schedule says so — a replacement worker spawns after the configured
    delay; stalls and slowdowns degrade the worker without losing work.

    Shutdown protocol: the owner stops submitting, calls {!shutdown}, which
    waits for the structure to drain, closes it (making blocked [get]s
    return [None]) and joins the workers. *)

open Psmr_platform

module Make (P : Platform_intf.S) (Cos : Psmr_cos.Cos_intf.S) = struct
  module Latch = Latch.Make (P)

  type cmd = Cos.cmd

  type t = {
    cos : Cos.t;
    workers : int;
    joined : Latch.t;
    submitted : int P.Atomic.t;
    executed : int P.Atomic.t;
    crashed : int P.Atomic.t;  (* workers killed by injected faults *)
  }

  let start ?max_size ~workers ~execute () =
    if workers <= 0 then invalid_arg "Scheduler.start: workers must be positive";
    let cos = Cos.create ?max_size ~worker_bound:workers () in
    let t =
      {
        cos;
        workers;
        joined = Latch.create workers;
        submitted = P.Atomic.make 0;
        executed = P.Atomic.make 0;
        crashed = P.Atomic.make 0;
      }
    in
    (* [i] identifies the simulated core, stable across respawns: the
       replacement for a crashed worker keeps its id, so per-worker fault
       schedules address cores, not incarnations.  Latch accounting: every
       thread of control that enters [loop] eventually either counts down
       (drained [get]) or hands its obligation to the replacement it
       spawns, so [shutdown] joins exactly [workers] obligations. *)
    let rec worker_loop i () =
      match Cos.get cos with
      | None -> Latch.count_down t.joined
      | Some h -> (
          match Psmr_fault.Fault.worker ~id:i with
          | Psmr_fault.Fault.Crash { respawn_after } ->
              P.work Fault;
              Cos.requeue cos h;
              ignore (P.Atomic.fetch_and_add t.crashed 1 : int);
              (match respawn_after with
              | None ->
                  (* Permanent loss of the core: the pool shrinks, the
                     latch obligation is met here. *)
                  Latch.count_down t.joined
              | Some d -> P.after d (worker_loop i))
          | (Run | Stall _ | Slow _) as action ->
              (match action with
              | Stall d -> P.work Fault; P.sleep d
              | Run | Slow _ | Crash _ -> ());
              let t0 = Psmr_obs.Probe.now () in
              execute (Cos.command h);
              Psmr_obs.Probe.exec_latency (Psmr_obs.Probe.now () -. t0);
              (match action with
              | Slow d -> P.work Fault; P.sleep d
              | Run | Stall _ | Crash _ -> ());
              Cos.remove cos h;
              ignore (P.Atomic.fetch_and_add t.executed 1 : int);
              worker_loop i ())
    in
    for i = 1 to workers do
      P.spawn ~name:(Printf.sprintf "worker-%d" i) (worker_loop i)
    done;
    t

  let submit t c =
    ignore (P.Atomic.fetch_and_add t.submitted 1 : int);
    Cos.insert t.cos c

  let submit_batch t cs =
    Psmr_obs.Probe.batch (Array.length cs);
    ignore (P.Atomic.fetch_and_add t.submitted (Array.length cs) : int);
    Cos.insert_batch t.cos cs

  let submitted t = P.Atomic.get t.submitted
  let executed t = P.Atomic.get t.executed
  let in_flight t = submitted t - executed t
  let crashed_workers t = P.Atomic.get t.crashed

  (* Polling drain: cheap on the real platform, and on the simulator each
     probe is just one virtual-time event. *)
  let drain ?(poll = 1e-4) t =
    while executed t < submitted t do
      P.sleep poll
    done

  let shutdown ?poll t =
    drain ?poll t;
    Cos.close t.cos;
    Latch.wait t.joined
end
