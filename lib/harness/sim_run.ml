(** One simulated run: the setup every DES harness shares — engine and
    platform, the fault plan, the observability registry, a simulated CPU
    bank, the measurement window (warmup gate, completion counter,
    population probe) and the wall-timed engine run.

    Process ids are the tags that break same-time event ties, so the
    order of spawns is part of a harness's behaviour: a harness spawns its
    target's processes first, then {!population_probe} where it samples
    one, and {!run} spawns the warmup gate last. *)

type t = {
  engine : Psmr_sim.Engine.t;
  platform : (module Psmr_platform.Platform_intf.S);
  plan : Psmr_fault.Plan.t;
  metrics : Psmr_obs.Metrics.t option;
  trace : Psmr_obs.Trace.t option;
  cpu : Psmr_sim.Sim_sync.Cpu.t;
  mutable measuring : bool;
  mutable completed : int;
  mutable duration : float;
}

let with_sim ?(costs = Model.sim_costs) ?(faults = Psmr_fault.Schedule.empty)
    ?(metrics = false) ?(trace = false)
    ?(probe_engine = fun (_ : Psmr_sim.Engine.t) -> ()) f =
  let engine = Psmr_sim.Engine.create () in
  probe_engine engine;
  let platform = Psmr_sim.Sim_platform.make engine costs in
  let now () = Psmr_sim.Engine.now engine in
  let plan = Psmr_fault.Plan.make ~now faults in
  (* Installing the (global) plan only when the schedule can fire anything
     keeps fault-free runs free of shared facade state, which is what lets
     Grid_runner fan grid points out over domains. *)
  let with_plan f =
    if Psmr_fault.Schedule.is_empty faults then f ()
    else Psmr_fault.Plan.with_plan plan f
  in
  with_plan @@ fun () ->
  (* Observability registry: recording is pure mutation driven by probe
     hooks, so the run computes exactly the same virtual-time history with
     metrics on or off (test/test_obs.ml holds us to that). *)
  let trace = if trace then Some (Psmr_obs.Trace.create ()) else None in
  let metrics =
    if metrics || Option.is_some trace then
      Some
        (Psmr_obs.Metrics.make ~now
           ~track:(fun () -> Psmr_sim.Engine.running_tag engine)
           ?trace ())
    else None
  in
  f
    {
      engine;
      platform;
      plan;
      metrics;
      trace;
      cpu = Psmr_sim.Sim_sync.Cpu.create ~cores:Model.cores;
      measuring = false;
      completed = 0;
      duration = 0.0;
    }

let engine t = t.engine
let platform t = t.platform
let metrics t = t.metrics
let trace t = t.trace
let faults_injected t = Psmr_fault.Plan.injected t.plan
let events t = Psmr_sim.Engine.events_executed t.engine
let exec t seconds = Psmr_sim.Sim_sync.Cpu.use t.cpu seconds
let measuring t = t.measuring
let tick t = if t.measuring then t.completed <- t.completed + 1
let completed t = t.completed
let kops t = float_of_int t.completed /. t.duration /. 1000.0

let forever t ~name body =
  Psmr_sim.Engine.spawn t.engine ~name (fun () ->
      let rec loop () =
        body ();
        loop ()
      in
      loop ())

let population_probe t in_flight =
  let (module SP) = t.platform in
  let sum = ref 0 and n = ref 0 in
  forever t ~name:"pop-probe" (fun () ->
      SP.sleep 1e-3;
      if t.measuring then begin
        sum := !sum + in_flight ();
        incr n
      end);
  fun () -> if !n = 0 then 0.0 else float_of_int !sum /. float_of_int !n

(* Chrome-trace track names: one per simulated core plus one per named
   process. *)
let name_tracks t tr =
  Psmr_obs.Trace.set_process_name tr ~pid:Psmr_obs.Probe.core_pid "cores";
  Psmr_obs.Trace.set_process_name tr ~pid:Psmr_obs.Probe.proc_pid "processes";
  for core = 0 to Model.cores - 1 do
    Psmr_obs.Trace.set_thread_name tr ~pid:Psmr_obs.Probe.core_pid ~tid:core
      (Printf.sprintf "core-%d" core)
  done;
  List.iter
    (fun (pid, name) ->
      Psmr_obs.Trace.set_thread_name tr ~pid:Psmr_obs.Probe.proc_pid ~tid:pid
        name)
    (Psmr_sim.Engine.process_names t.engine)

let run ?(at_warmup = ignore) t ~warmup ~duration =
  t.duration <- duration;
  Psmr_sim.Engine.spawn t.engine ~delay:warmup ~name:"warmup-gate" (fun () ->
      t.measuring <- true;
      at_warmup ());
  (match t.metrics with Some r -> Psmr_obs.Metrics.enable r | None -> ());
  let wall0 = Psmr_sim.Grid_runner.wall_now () in
  Fun.protect
    ~finally:(fun () ->
      if Option.is_some t.metrics then Psmr_obs.Metrics.disable ())
    (fun () -> Psmr_sim.Engine.run ~until:(warmup +. duration) t.engine);
  let wall_seconds = Psmr_sim.Grid_runner.wall_now () -. wall0 in
  Option.iter (name_tracks t) t.trace;
  wall_seconds
