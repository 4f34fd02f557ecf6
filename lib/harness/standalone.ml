(** Standalone data-structure experiments (paper §7.3, Figures 2 and 3):
    one inserter thread at maximum rate, W worker threads, no SMR stack.

    The COS implementations run unmodified on the simulated platform; the
    command execution cost occupies one of the {!Model.cores} simulated
    cores for the workload's scan time. *)

(* The COS only needs to know whether a command writes: reads conflict with
   writers, writers with everything (the readers-writers list relation).
   The footprint view is one shared variable. *)
module Rw = struct
  type t = bool (* is_write *)

  let conflict a b = a || b
  let footprint w = [ (0, w) ]
  let is_write w = w
  let pp ppf w = Format.pp_print_string ppf (if w then "w" else "r")
end

type result = {
  kops : float;  (** completed commands per second, in thousands *)
  mean_population : float;  (** mean number of commands in the graph *)
  executed : int;
  engine_events : int;  (** DES events the run executed *)
  wall_seconds : float;  (** wall-clock cost of the simulation loop *)
  faults_injected : int;  (** fault decisions that fired during the run *)
  crashed_workers : int;  (** workers lost to injected crashes *)
  metrics : Psmr_obs.Metrics.t option;  (** when run with [~metrics:true] *)
  trace : Psmr_obs.Trace.t option;  (** when run with [~trace:true] *)
}

let default_duration = 0.08
let default_warmup = 0.02

let run ~impl ~workers ~(spec : Psmr_workload.Workload.spec) ?max_size
    ?(batch = 1) ?costs ?(duration = default_duration)
    ?(warmup = default_warmup) ?(seed = 42L) ?faults ?metrics ?trace
    ?probe_engine () =
  if batch <= 0 then invalid_arg "Standalone.run: batch must be positive";
  Sim_run.with_sim ?costs ?faults ?metrics ?trace ?probe_engine @@ fun sim ->
  let (module SP) = Sim_run.platform sim in
  let (module Cos : Psmr_cos.Cos_intf.S with type cmd = bool) =
    Psmr_cos.Registry.instantiate_keyed impl (module SP) (module Rw)
  in
  let module Sched = Psmr_sched.Scheduler.Make (SP) (Cos) in
  let execute is_write =
    Sim_run.exec sim (Model.exec_cost spec.cost ~is_write);
    Sim_run.tick sim
  in
  let sched = Sched.start ?max_size ~workers ~execute () in
  (* Scheduler thread: insert as fast as the structure admits (§7.3: "one
     thread looped without waiting interval ... and invoked insert").  With
     [batch] > 1, commands arrive [batch] at a time, as from an ordering
     protocol, and are inserted via the batched path. *)
  let rng = Psmr_util.Rng.create ~seed in
  let next () = Psmr_util.Rng.below_percent rng spec.write_pct in
  Sim_run.forever sim ~name:"inserter"
    (if batch = 1 then fun () -> Sched.submit sched (next ())
     else fun () ->
       Sched.submit_batch sched (Array.init batch (fun _ -> next ())));
  let mean_population =
    Sim_run.population_probe sim (fun () -> Sched.in_flight sched)
  in
  let wall_seconds = Sim_run.run sim ~warmup ~duration in
  {
    kops = Sim_run.kops sim;
    mean_population = mean_population ();
    executed = Sim_run.completed sim;
    engine_events = Sim_run.events sim;
    wall_seconds;
    faults_injected = Sim_run.faults_injected sim;
    crashed_workers = Sched.crashed_workers sched;
    metrics = Sim_run.metrics sim;
    trace = Sim_run.trace sim;
  }
