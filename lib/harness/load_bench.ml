(** Latency-under-load experiments on the DES: an *open-loop* arrival
    process ({!Psmr_traffic.Arrival}) drives a YCSB-style scenario
    ({!Psmr_traffic.Scenario}) into any execution backend, and the
    harness reports the latency distribution (p50/p99/p999 in virtual
    seconds) plus the drop rate at each offered-load step — the
    saturation view the closed-loop harnesses ({!Standalone},
    {!Keyed_bench}, {!Part_bench}) cannot give, because a closed loop
    slows its own feeder down instead of letting latency grow
    (coordinated omission).

    Open-loop discipline: arrivals are timestamped by the arrival
    process and pushed into a *bounded offered queue*; when the backend
    falls behind, the queue fills and new arrivals are shed (counted,
    never blocked), so the generator's timing never depends on the
    system under test.  Latency is measured from arrival (queue entry,
    not dispatch) to completion — commit, for the optimistic backend;
    execution on the measured replica, for the partitioned stack — so
    queueing delay is part of the number, as it is for a real client.

    The saturation knee of a sweep is the first offered-load step whose
    p99 exceeds [knee_mult] times the idle baseline (the first step's
    p99) or whose drop rate exceeds [knee_max_drop]: after that step
    the impl is saturated and latencies are set by the queue bound, not
    the scheduler. *)

module Arrival = Psmr_traffic.Arrival
module Scenario = Psmr_traffic.Scenario
module Session = Psmr_traffic.Session
module Histogram = Psmr_util.Histogram

module Cmd = Keyed_bench.Cmd

(* A kv point op costs what a light list op costs; a scan pays per
   scanned slot.  Execution-cost realism is not the point here — the
   schedulers saturate three orders of magnitude below the 64-core
   execution capacity — but scans must not be free. *)
let point_cost ~is_write =
  Model.exec_cost Psmr_workload.Workload.Light ~is_write

let op_cost = function
  | Scenario.Scan (_, len) -> float_of_int len *. point_cost ~is_write:false
  | op -> point_cost ~is_write:(Scenario.is_write op)

let cmd_of_op ~born op =
  { Cmd.fp = Scenario.footprint op; cost = op_cost op; born }

type target =
  | Backend of Psmr_early.Registry.backend
      (** any registry backend, conservative or optimistic *)
  | Partitioned of int
      (** {!Part_bench.stack} with that many sequencer partitions *)

let target_label = function
  | Backend b -> Psmr_early.Registry.to_string b
  | Partitioned p -> Printf.sprintf "part%d" p

let target_of_string s =
  match Psmr_early.Registry.of_string s with
  | Some b -> Some (Backend b)
  | None -> (
      let num suffix =
        match int_of_string_opt suffix with
        | Some p when p >= 1 -> Some (Partitioned p)
        | _ -> None
      in
      match String.lowercase_ascii s with
      | s' when String.length s' > 5 && String.sub s' 0 5 = "part-" ->
          num (String.sub s' 5 (String.length s' - 5))
      | s' when String.length s' > 4 && String.sub s' 0 4 = "part" ->
          num (String.sub s' 4 (String.length s' - 4))
      | _ -> None)

type step = {
  offered_kops : float;  (** target offered load (mean arrival rate) *)
  arrivals : int;  (** arrivals during the measurement window *)
  completed : int;  (** completions during the measurement window *)
  dropped : int;  (** arrivals shed at the full offered queue *)
  drop_rate : float;  (** dropped / arrivals *)
  kops : float;  (** completed per second, thousands *)
  samples : int;  (** latency samples recorded *)
  p50 : float;  (** latency quantiles, virtual seconds *)
  p99 : float;
  p999 : float;
  mean_latency : float;
  max_latency : float;
  queue_peak : int;  (** offered-queue high-water mark *)
  engine_events : int;
  wall_seconds : float;
}

(** Deterministic fields of a step (no wall clock), for JSON export and
    the byte-identical-replay test. *)
let step_fields s =
  [
    ("offered_kops", s.offered_kops);
    ("kops", s.kops);
    ("arrivals", float_of_int s.arrivals);
    ("completed", float_of_int s.completed);
    ("dropped", float_of_int s.dropped);
    ("drop_rate", s.drop_rate);
    ("samples", float_of_int s.samples);
    ("p50", s.p50);
    ("p99", s.p99);
    ("p999", s.p999);
    ("mean_latency", s.mean_latency);
    ("max_latency", s.max_latency);
    ("queue_peak", float_of_int s.queue_peak);
    ("engine_events", float_of_int s.engine_events);
  ]

let step_to_string s =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%.9g" k v) (step_fields s))

let default_sessions = 1_000_000
let default_queue_cap = 8192
let default_batch = 16

(* The partitioned target's in-flight credit window is tighter than
   Part_bench's throughput-oriented 4096: under open-loop load a backlog
   acquired during a transient never drains (the merge emits at exactly
   the offered rate), so steady-state latency is pinned at window/rate.
   1024 still covers the ordering pipeline at peak (~0.6 ms * ~1 Mops/s
   in flight) without capping throughput, while keeping the latency
   floor honest. *)
let part_window = 1024

let run_step ~target ~workers ~(scenario : Scenario.spec) ~shape
    ?(sessions = default_sessions) ?(queue_cap = default_queue_cap)
    ?(batch = default_batch) ?costs ?(duration = Standalone.default_duration)
    ?(warmup = Standalone.default_warmup) ?(seed = 42L) () =
  if batch < 1 then invalid_arg "Load_bench.run_step: batch must be >= 1";
  if queue_cap < batch then
    invalid_arg "Load_bench.run_step: need batch <= queue_cap";
  Sim_run.with_sim ?costs @@ fun sim ->
  let (module SP) = Sim_run.platform sim in
  let horizon = warmup +. duration in
  let arrivals = ref 0 and dropped = ref 0 in
  let lat = Histogram.create () in
  (* Completion: commit (optimistic), execution otherwise.  Only
     commands that themselves arrived inside the window are sampled, so
     warmup-era queueing does not leak into the distribution. *)
  let record (c : Cmd.t) =
    Sim_run.tick sim;
    if Sim_run.measuring sim && c.born >= warmup then
      Histogram.record lat (Sim_run.now sim -. c.born)
  in
  (* The bounded offered queue between the arrival process and the
     injector.  The arrival side is the outside world: it touches the
     queue with host operations only (DES processes are cooperatively
     scheduled, so there is no race) and pays zero simulated cost, which
     keeps the arrival stream *exactly* backend-independent — the
     injector blocks on the backend's own window, the arrival process
     never blocks on anything; it sheds at [queue_cap]. *)
  let q : Cmd.t Queue.t = Queue.create () in
  let q_peak = ref 0 in
  (* The injector's intake poll: the latency floor it adds at idle is
     microseconds, far under any knee threshold. *)
  let intake_poll = 2e-6 in
  (* Wait for at least one offered command, pop up to [batch]. *)
  let rec pop_block () =
    if Queue.is_empty q then begin
      SP.sleep intake_poll;
      pop_block ()
    end
    else
      let n = min batch (Queue.length q) in
      Array.init n (fun _ -> Queue.pop q)
  in
  let pool = Session.create ~seed:(Int64.add seed 0x5EEDL) ~sessions () in
  let gen = Scenario.generator scenario in
  let arr = Arrival.create ~seed:(Int64.add seed 0xA221L) shape in
  Psmr_sim.Engine.spawn (Sim_run.engine sim) ~name:"arrivals" (fun () ->
      let rec loop () =
        let t = Arrival.next arr in
        if t < horizon then begin
          let now = Sim_run.now sim in
          if t > now then SP.sleep (t -. now);
          if Sim_run.measuring sim then incr arrivals;
          let len = Queue.length q in
          if len >= queue_cap then begin
            (* Overload policy: shed the newest arrival, count it,
               never block — the generator must stay open-loop. *)
            if Sim_run.measuring sim then incr dropped
          end
          else begin
            let sid = Session.draw pool in
            let srng = Session.stream pool sid in
            let op = Scenario.next gen srng in
            Queue.push (cmd_of_op ~born:(Sim_run.now sim) op) q;
            if len + 1 > !q_peak then q_peak := len + 1
          end;
          loop ()
        end
      in
      loop ());
  (* The injector: the target's own feeder, fed from the offered queue.
     The optimistic pipeline ({!Keyed_bench.start}) sees the open-loop
     stream in order, i.e. 0% mis-speculation — the mis-rate sweep lives
     in keyed_sim_kops.  The partitioned stack ({!Part_bench.stack}) puts
     the whole ordering path — ingestion, batching, merge, dispatch —
     inside the measured latency. *)
  let inject =
    match target with
    | Backend backend ->
        let b = Keyed_bench.start ~workers ~on_done:record sim backend in
        if Psmr_early.Registry.is_optimistic backend then fun cmds ->
          b.submit_block (Array.init (Array.length cmds) Fun.id) cmds
        else b.submit_batch
    | Partitioned partitions ->
        (Part_bench.stack sim ~partitions
           ~replicas:(Part_bench.default_replicas ~partitions)
           ~workers ~batch ~window:part_window ~on_exec:record)
          .submit
  in
  Sim_run.forever sim ~name:"injector" (fun () -> inject (pop_block ()));
  let wall_seconds = Sim_run.run sim ~warmup ~duration in
  {
    offered_kops = Arrival.mean_rate shape /. 1000.0;
    arrivals = !arrivals;
    completed = Sim_run.completed sim;
    dropped = !dropped;
    drop_rate =
      (if !arrivals = 0 then 0.0
       else float_of_int !dropped /. float_of_int !arrivals);
    kops = Sim_run.kops sim;
    samples = Histogram.count lat;
    p50 = Histogram.quantile lat 0.50;
    p99 = Histogram.quantile lat 0.99;
    p999 = Histogram.quantile lat 0.999;
    mean_latency = Histogram.mean lat;
    max_latency = Histogram.max_value lat;
    queue_peak = !q_peak;
    engine_events = Sim_run.events sim;
    wall_seconds;
  }

let default_knee_mult = 8.0
let default_knee_max_drop = 0.01

(** The saturation knee: offered kops of the first step whose p99
    exceeds [mult] times the first step's p99 (the idle baseline) or
    whose drop rate exceeds [max_drop].  [None] when no step qualifies
    (the sweep never reached saturation). *)
let knee ?(mult = default_knee_mult) ?(max_drop = default_knee_max_drop) =
  function
  | [] -> None
  | base :: _ as steps ->
      let baseline = Float.max base.p99 1e-9 in
      List.find_opt
        (fun s -> s.p99 > mult *. baseline || s.drop_rate > max_drop)
        steps
      |> Option.map (fun s -> s.offered_kops)

type sweep = {
  target : target;
  workers : int;
  scenario : Scenario.spec;
  steps : step list;
  knee_kops : float option;
}

(** One {!run_step} per rate (ops/s), each an independent deterministic
    simulation, plus the knee over the resulting steps.  [shape_of_rate]
    defaults to a homogeneous Poisson process. *)
let sweep ~target ~workers ~scenario ~rates
    ?(shape_of_rate = fun rate -> Arrival.Poisson { rate })
    ?(knee_mult = default_knee_mult) ?(knee_max_drop = default_knee_max_drop)
    ?sessions ?queue_cap ?batch ?costs ?duration ?warmup ?seed () =
  if rates = [] then invalid_arg "Load_bench.sweep: no rates";
  let steps =
    List.map
      (fun rate ->
        run_step ~target ~workers ~scenario ~shape:(shape_of_rate rate)
          ?sessions ?queue_cap ?batch ?costs ?duration ?warmup ?seed ())
      rates
  in
  {
    target;
    workers;
    scenario;
    steps;
    knee_kops = knee ~mult:knee_mult ~max_drop:knee_max_drop steps;
  }
