(* Engine microbenchmarks: how fast the DES core itself turns events over,
   independent of any data structure under test.  Three loads:

   - [churn]: pure schedule/execute traffic — 8192 chains each
     re-scheduling one preallocated closure, on mixed periods (heap
     discipline) with one chain in eight running at zero delay
     (same-timestamp lane discipline).  Nothing is allocated per event on
     the benchmark side, so the row measures the engine's own
     enqueue/dequeue/dispatch cost, through a pending set of the size the
     partitions-by-workers scale-out grids produce.  The 10M-event point
     of this load is the PR's acceptance number.
   - [sync_storm]: the simulated synchronization primitives under
     contention — mutex handoffs, semaphore parks/wakes, condition-free
     but suspend-heavy, the traffic the COS experiments generate.
   - [replica]: a real harness run (indexed COS, 32 workers) so the
     microbenchmarks stay anchored to what the figures actually pay.

   Wall time comes from [Grid_runner.wall_now]; everything else in the
   engine is virtual-time code and must stay clock-free. *)

open Psmr_sim

type row = { name : string; events : int; wall_seconds : float }

let events_per_second r =
  if r.wall_seconds <= 0.0 then 0.0
  else float_of_int r.events /. r.wall_seconds

let timed name f =
  (* The engine rows run after the bechamel micro section in the full
     bench binary; start each scenario from a settled heap so its row
     measures the engine, not the previous benchmark's garbage. *)
  Gc.compact ();
  let t0 = Grid_runner.wall_now () in
  let engine = f () in
  let wall_seconds = Grid_runner.wall_now () -. t0 in
  { name; events = Engine.events_executed engine; wall_seconds }

(* Pure scheduling churn: no user state, just event turnover.  Each chain
   re-schedules the same closure, so steady state allocates nothing on
   this side of the engine API.  Mixed periods keep the priority queue
   genuinely ordered (not a single timestamp); the zero-delay chains
   exercise the same-timestamp lane. *)
let churn ~name ~events =
  timed name @@ fun () ->
  let e = Engine.create () in
  let chains = 8192 in
  let remaining = Array.make chains (events / chains) in
  for j = 0 to chains - 1 do
    let dt =
      if j land 7 = 0 then 0.0 else 1e-6 *. float_of_int (1 + (j mod 7))
    in
    let rec tick () =
      let n = remaining.(j) in
      if n > 0 then begin
        remaining.(j) <- n - 1;
        Engine.schedule e ~delay:dt tick
      end
    in
    Engine.schedule e tick
  done;
  Engine.run e;
  e

(* Synchronization-primitive storm: what scheduler workers do all day —
   contend on a lock, park on a semaphore, get woken. *)
let sync_storm ~name ~events =
  timed name @@ fun () ->
  let e = Engine.create () in
  let (module P) = Sim_platform.make e Costs.default in
  let m = P.Mutex.create () in
  let s = P.Semaphore.create 4 in
  let procs = 32 in
  let iters = events / (procs * 8) in
  for _ = 1 to procs do
    Engine.spawn e (fun () ->
        for _ = 1 to iters do
          P.Mutex.lock m;
          Engine.delay 1e-6;
          P.Mutex.unlock m;
          P.Semaphore.acquire s;
          Engine.yield ();
          P.Semaphore.release s
        done)
  done;
  Engine.run e;
  e

(* A real figure-grade run, reported in engine events rather than kops:
   the number the microbenchmarks above are meant to move. *)
let replica ~smoke =
  let duration, warmup = if smoke then (0.02, 0.005) else (0.08, 0.02) in
  let r =
    Psmr_harness.Standalone.run
      ~backend:(Cos Psmr_early.Registry.Indexed)
      ~workers:32
      ~workload:(Paper { Psmr_workload.Workload.write_pct = 15.0; cost = Light })
      ~duration ~warmup ()
  in
  {
    name = "replica_indexed_w32";
    events = r.Psmr_harness.Standalone.engine_events;
    wall_seconds = r.wall_seconds;
  }

(* Process churn: the same mixed-period traffic driven through effect
   coroutines ([delay]/[yield]) rather than plain callbacks — each event
   is a continuation park/resume, so the row includes the effect-handler
   cost the COS workloads pay. *)
let process_churn ~name ~events =
  timed name @@ fun () ->
  let e = Engine.create () in
  let procs = 64 in
  let iters = (events / procs) - 1 in
  for p = 0 to procs - 1 do
    let dt = 1e-6 *. float_of_int (1 + (p mod 7)) in
    Engine.spawn e (fun () ->
        for i = 1 to iters do
          if i land 7 = 0 then Engine.yield () else Engine.delay dt
        done)
  done;
  Engine.run e;
  e

let rows ~smoke () =
  let churn_row =
    if smoke then churn ~name:"churn_smoke" ~events:500_000
    else churn ~name:"churn_10m" ~events:10_000_000
  in
  let proc_row =
    process_churn
      ~name:(if smoke then "process_churn_smoke" else "process_churn")
      ~events:(if smoke then 500_000 else 10_000_000)
  in
  let storm =
    sync_storm ~name:"sync_storm" ~events:(if smoke then 200_000 else 2_000_000)
  in
  [ churn_row; proc_row; storm; replica ~smoke ]

let pp_row ppf r =
  Format.fprintf ppf "%-20s %9d events  %8.3fs  %12.0f events/s" r.name
    r.events r.wall_seconds (events_per_second r)
