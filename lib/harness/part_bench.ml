(** Partitioned-ordering experiments on the DES: the full
    {!Psmr_broadcast.Partition} stack (N sequencer instances, leadership
    rotated across the cluster, cross-partition commands merged at the
    rendezvous) deployed over the simulated LAN, driven by an open-loop
    keyed feeder and drained through the early class-map dispatcher on the
    measured replica.

    What the grid measures: with execution parallelized across [workers],
    a single sequencer becomes the CPU bottleneck — every command charges
    its ingestion [Marshal] on the leader's event loop
    ({!Psmr_broadcast.Abcast}).  Sharding the key space over [partitions]
    sequencers whose leaders sit on distinct replicas divides that serial
    ingestion work, so single-partition throughput scales until some
    replica again saturates; cross-partition commands pay ingestion on
    every touched sequencer plus the merge rendezvous, so a 100%-cross
    workload degrades gracefully rather than scaling. *)

module Cmd = Keyed_bench.Cmd

type result = {
  kops : float;  (** commands executed per second at replica 0, thousands *)
  executed : int;  (** commands executed during the measurement window *)
  emitted : int;  (** total merged emissions at replica 0 *)
  singles : int;  (** single-partition emissions at replica 0 *)
  crosses : int;  (** cross-partition emissions at replica 0 *)
  holes : int;  (** per-partition sequence holes from cycle tie-breaks *)
  merge_pending : int;  (** delivered-but-unmerged entries at the horizon *)
  views : int;  (** view changes across all replicas (0 when fault-free) *)
  engine_events : int;
  wall_seconds : float;
  metrics : Psmr_obs.Metrics.t option;
}

(* The smallest odd cluster that seats every partition's starting leader
   ([p mod n]) on a distinct replica, floored at the usual 3: partitioned
   deployments grow the cluster with the partition count so sharding buys
   sequencer CPU instead of stacking leaders on one node. *)
let default_replicas ~partitions =
  max 3 (if partitions mod 2 = 0 then partitions + 1 else partitions)

let config_label ~partitions ~replicas ~workers ~batch
    (spec : Psmr_workload.Workload.Keyed.spec) =
  (* %g throughout ([Keyed.pp] included): fractional percentages must not
     collapse into the same memo key (the %.0f collision class). *)
  Format.asprintf "part%d/n%d/w%d/b%d/%a" partitions replicas workers batch
    Psmr_workload.Workload.Keyed.pp spec

type msg =
  | Sub of Cmd.t array  (** feeder traffic into replica 0 *)
  | PWire of Cmd.t Psmr_broadcast.Partition.wire
  | Tick

let default_window = 4096

let run ~partitions ~workers ~(spec : Psmr_workload.Workload.Keyed.spec)
    ?replicas ?(batch = 16) ?(window = default_window) ?costs
    ?(duration = Standalone.default_duration)
    ?(warmup = Standalone.default_warmup) ?(seed = 42L) ?metrics () =
  if partitions < 1 then invalid_arg "Part_bench.run: partitions must be >= 1";
  if batch < 1 || window < batch then
    invalid_arg "Part_bench.run: need 1 <= batch <= window";
  let n = Option.value replicas ~default:(default_replicas ~partitions) in
  Sim_run.with_sim ?costs ?metrics @@ fun sim ->
  let (module SP) = Sim_run.platform sim in
  let module Net = Psmr_net.Network.Make (SP) in
  let module Part = Psmr_broadcast.Partition.Make (SP) in
  let module D = Psmr_early.Dispatch.Make (SP) (Cmd) in
  let net =
    Net.create ~latency:(fun ~src:_ ~dst:_ -> Model.lan_latency) ~nodes:n ()
  in
  (* Feeder credits are returned at execution, so the ordering pipeline
     plus the dispatcher hold at most [window] commands; the dispatcher
     window is sized above that, so protocol handling never blocks on a
     full executor. *)
  let credit = SP.Semaphore.create window in
  let execute (c : Cmd.t) =
    Sim_run.exec sim c.cost;
    Sim_run.tick sim;
    SP.Semaphore.release credit
  in
  let d = D.start ~max_size:(2 * window) ~workers ~execute () in
  (* Replica 0 collects each event-loop turn's merged emissions and feeds
     the executor through the batched submit path, amortizing the
     dispatcher's window and queue synchronization over the turn. *)
  let exec_buf = Psmr_util.Vec.create () in
  let eps =
    Array.init n (fun id ->
        Part.create ~config:Model.smr_abcast ~partitions ~id ~n
          ~send:(fun dst w -> Net.send net ~src:id ~dst (PWire w))
          ~deliver:(fun (em : Cmd.t Psmr_broadcast.Pmerge.emitted) ->
            if id = 0 then Psmr_util.Vec.push exec_buf em.cmd)
          ())
  in
  let engine = Sim_run.engine sim in
  Array.iteri
    (fun id ep ->
      Psmr_sim.Engine.spawn engine ~name:(Printf.sprintf "part-replica-%d" id)
        (fun () ->
          let rec loop () =
            match Net.recv net id with
            | None -> ()
            | Some { src; payload; _ } ->
                (match payload with
                | Sub cmds ->
                    Part.submit_batch ep ~footprint:(fun (c : Cmd.t) -> c.fp)
                      cmds
                | PWire w -> Part.handle ep ~src w
                | Tick -> Part.tick ep);
                if id = 0 && Psmr_util.Vec.length exec_buf > 0 then begin
                  D.submit_batch d (Psmr_util.Vec.to_array exec_buf);
                  Psmr_util.Vec.clear exec_buf
                end;
                loop ()
          in
          loop ());
      Psmr_sim.Engine.spawn engine ~name:(Printf.sprintf "part-ticker-%d" id)
        (fun () ->
          let rec tick_loop () =
            if not (Net.is_crashed net id) then begin
              SP.sleep Model.smr_tick_interval;
              Net.send net ~src:id ~dst:id Tick;
              tick_loop ()
            end
          in
          tick_loop ()))
    eps;
  let rng = Psmr_util.Rng.create ~seed in
  (* Take one credit per command, blocking while the window is spent, and
     send the batch to replica 0's sequencer. *)
  Sim_run.forever sim ~name:"part-feeder" (fun () ->
      let cmds = Array.init batch (fun _ -> Keyed_bench.gen spec rng) in
      SP.Semaphore.acquire ~n:batch credit;
      Net.send net ~src:0 ~dst:0 (Sub cmds));
  let wall_seconds = Sim_run.run sim ~warmup ~duration in
  let ep0 = eps.(0) in
  {
    kops = Sim_run.kops sim;
    executed = Sim_run.completed sim;
    emitted = Part.emitted ep0;
    singles = Part.emitted ep0 - Part.crosses ep0;
    crosses = Part.crosses ep0;
    holes = Part.holes ep0;
    merge_pending = Part.merge_pending ep0;
    views = Array.fold_left (fun acc ep -> acc + Part.views_installed ep) 0 eps;
    engine_events = Sim_run.events sim;
    wall_seconds;
    metrics = Sim_run.metrics sim;
  }
