(* Command-line driver for the reproduction experiments.

   Examples:
     psmr-bench fig2 --cost light
     psmr-bench fig4 --cost moderate --fast
     psmr-bench fig6 --writes 10
     psmr-bench all --csv results/
     psmr-bench standalone --impl lockfree --workers 16 --writes 5 --cost moderate
     psmr-bench keyed --impl early --workers 32 --keys 4096 --cross 2
     psmr-bench smr --impl lockfree --workers 32 --clients 100 --cost heavy *)

open Cmdliner

(* A run's metrics block, with the cost model it was simulated under. *)
let print_metrics m =
  print_endline
    (Psmr_util.Json.to_string
       (Psmr_obs.Metrics.to_json
          ~cost_model:(Psmr_sim.Costs.to_assoc Psmr_harness.Model.sim_costs)
          m))

let cost_conv =
  let parse s =
    match Psmr_workload.Workload.cost_of_string s with
    | Some c -> Ok c
    | None -> Error (`Msg (Printf.sprintf "unknown cost class %S" s))
  in
  let print ppf c =
    Format.pp_print_string ppf (Psmr_workload.Workload.cost_label c)
  in
  Arg.conv (parse, print)

let impl_conv =
  let parse s =
    match Psmr_cos.Registry.of_string s with
    | Some i -> Ok i
    | None -> Error (`Msg (Printf.sprintf "unknown implementation %S" s))
  in
  let print ppf i =
    Format.pp_print_string ppf (Psmr_cos.Registry.to_string i)
  in
  Arg.conv (parse, print)

let cost_arg =
  Arg.(
    value
    & opt cost_conv Psmr_workload.Workload.Light
    & info [ "cost" ] ~docv:"CLASS" ~doc:"Execution cost: light, moderate or heavy.")

let fast_arg =
  Arg.(
    value & flag
    & info [ "fast" ] ~doc:"Subsample axes and shorten windows (smoke run).")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR" ~doc:"Also write CSV files into $(docv).")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress per-run progress logs.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run independent grid points on $(docv) OCaml domains.  Each \
           point keeps its own simulation engine and RNG, so the output is \
           byte-identical to --jobs 1; only wall time changes.")

let opts_of ~fast ~csv ~quiet ~jobs =
  let base =
    if fast then Psmr_harness.Figures.fast_options
    else Psmr_harness.Figures.default_options
  in
  { base with csv_dir = csv; progress = not quiet; jobs }

let print_series ~title ~x_label ~y_label series =
  print_string
    (Psmr_harness.Figures.render_figure ~title ~x_label ~y_label series)

let fig2_cmd =
  let run cost fast csv quiet jobs =
    let opts = opts_of ~fast ~csv ~quiet ~jobs in
    let s = Psmr_harness.Figures.fig2 opts cost in
    print_series
      ~title:
        (Printf.sprintf "Figure 2 (%s): standalone, 0%% writes"
           (Psmr_workload.Workload.cost_label cost))
      ~x_label:"workers" ~y_label:"kops/s" s
  in
  Cmd.v (Cmd.info "fig2" ~doc:"Standalone COS: throughput vs workers.")
    Term.(const run $ cost_arg $ fast_arg $ csv_arg $ quiet_arg $ jobs_arg)

let fig3_cmd =
  let run cost fast csv quiet jobs =
    let opts = opts_of ~fast ~csv ~quiet ~jobs in
    let s = Psmr_harness.Figures.fig3 opts cost in
    print_series
      ~title:
        (Printf.sprintf "Figure 3 (%s): standalone, best workers"
           (Psmr_workload.Workload.cost_label cost))
      ~x_label:"% writes" ~y_label:"kops/s" s
  in
  Cmd.v (Cmd.info "fig3" ~doc:"Standalone COS: throughput vs write percentage.")
    Term.(const run $ cost_arg $ fast_arg $ csv_arg $ quiet_arg $ jobs_arg)

let fig4_cmd =
  let run cost fast csv quiet jobs =
    let opts = opts_of ~fast ~csv ~quiet ~jobs in
    let s = Psmr_harness.Figures.fig4 opts cost in
    print_series
      ~title:
        (Printf.sprintf "Figure 4 (%s): replicated, 0%% writes"
           (Psmr_workload.Workload.cost_label cost))
      ~x_label:"workers" ~y_label:"kops/s" s
  in
  Cmd.v (Cmd.info "fig4" ~doc:"Replicated SMR: throughput vs workers.")
    Term.(const run $ cost_arg $ fast_arg $ csv_arg $ quiet_arg $ jobs_arg)

let fig5_cmd =
  let run cost fast csv quiet jobs =
    let opts = opts_of ~fast ~csv ~quiet ~jobs in
    let s = Psmr_harness.Figures.fig5 opts cost in
    print_series
      ~title:
        (Printf.sprintf "Figure 5 (%s): replicated, best workers"
           (Psmr_workload.Workload.cost_label cost))
      ~x_label:"% writes" ~y_label:"kops/s" s
  in
  Cmd.v (Cmd.info "fig5" ~doc:"Replicated SMR: throughput vs write percentage.")
    Term.(const run $ cost_arg $ fast_arg $ csv_arg $ quiet_arg $ jobs_arg)

let writes_arg =
  Arg.(
    value & opt float 5.0
    & info [ "writes" ] ~docv:"PCT" ~doc:"Write percentage (0-100).")

let fig6_cmd =
  let run writes fast csv quiet jobs =
    let opts = opts_of ~fast ~csv ~quiet ~jobs in
    let s = Psmr_harness.Figures.fig6 opts ~write_pct:writes in
    Printf.printf
      "## Figure 6 (%g%% writes): latency vs throughput, moderate cost\n\n%s\n"
      writes
      (Psmr_harness.Figures.fig6_table s)
  in
  Cmd.v (Cmd.info "fig6" ~doc:"Replicated SMR: latency vs throughput.")
    Term.(const run $ writes_arg $ fast_arg $ csv_arg $ quiet_arg $ jobs_arg)

let ablations_cmd =
  let run fast csv quiet jobs =
    let opts = opts_of ~fast ~csv ~quiet ~jobs in
    print_string (Psmr_harness.Figures.render_ablations opts)
  in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:
         "Extension experiments: lock granularity spectrum, graph bound, \
          realistic conflict band, failover timeline.")
    Term.(const run $ fast_arg $ csv_arg $ quiet_arg $ jobs_arg)

let all_cmd =
  let run fast csv quiet jobs =
    let opts = opts_of ~fast ~csv ~quiet ~jobs in
    print_string (Psmr_harness.Figures.run_all ~opts ())
  in
  Cmd.v (Cmd.info "all" ~doc:"Regenerate every figure (2-6).")
    Term.(const run $ fast_arg $ csv_arg $ quiet_arg $ jobs_arg)

(* Single-point runs for exploration. *)

let impl_arg =
  Arg.(
    value
    & opt impl_conv Psmr_cos.Registry.Lockfree
    & info [ "impl" ] ~docv:"IMPL"
        ~doc:
          "COS implementation: coarse, fine, lockfree, fifo, striped[-K] or \
           indexed.")

let workers_arg =
  Arg.(value & opt int 8 & info [ "workers" ] ~docv:"N" ~doc:"Worker threads.")

let clients_arg =
  Arg.(value & opt int 200 & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop clients.")

let duration_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "duration" ] ~docv:"SEC" ~doc:"Measurement window (virtual seconds).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect COS/synchronization counters and virtual-time latency \
           histograms during the run and print them as JSON.  Does not \
           change the simulation.")

let faults_conv =
  let parse s =
    match Psmr_fault.Schedule.parse s with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  let print ppf f =
    Format.pp_print_string ppf (Psmr_fault.Schedule.to_string f)
  in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(
    value
    & opt faults_conv Psmr_fault.Schedule.empty
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault schedule, e.g. \
           'seed=7,net-loss=1,worker-crash=1\\@0.05+0.02'.  See \
           docs/FAULTS.md for the grammar.  The run is replayable from the \
           workload seed and this spec alone.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file (loadable in Perfetto or \
           chrome://tracing): one track per simulated core with command \
           execution slices, one per simulated process with critical \
           sections.")

let standalone_cmd =
  let run impl workers writes cost duration faults metrics trace_out =
    let r =
      Psmr_harness.Standalone.run ~impl ~workers
        ~spec:{ write_pct = writes; cost }
        ?duration ~faults ~metrics
        ~trace:(trace_out <> None)
        ()
    in
    Printf.printf "%s workers=%d writes=%g%% cost=%s: %.1f kops/s (mean population %.1f)\n"
      (Psmr_cos.Registry.to_string impl)
      workers writes
      (Psmr_workload.Workload.cost_label cost)
      r.kops r.mean_population;
    if r.wall_seconds > 0.0 then
      Printf.printf "engine: %d events in %.3fs wall (%.0f events/s)\n"
        r.engine_events r.wall_seconds
        (float_of_int r.engine_events /. r.wall_seconds);
    if not (Psmr_fault.Schedule.is_empty faults) then
      Printf.printf "faults: %s -> %d injected, %d workers crashed\n"
        (Psmr_fault.Schedule.to_string faults)
        r.faults_injected r.crashed_workers;
    (match (metrics, r.metrics) with
    | true, Some m ->
        print_metrics m
    | _ -> ());
    match (trace_out, r.trace) with
    | Some path, Some tr ->
        let oc = open_out path in
        output_string oc (Psmr_obs.Trace.to_json tr);
        close_out oc;
        Printf.printf "trace: %d slices written to %s (%d dropped)\n"
          (Psmr_obs.Trace.count tr) path
          (Psmr_obs.Trace.dropped tr)
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "standalone" ~doc:"One standalone data-structure measurement.")
    Term.(
      const run $ impl_arg $ workers_arg $ writes_arg $ cost_arg $ duration_arg
      $ faults_arg $ metrics_arg $ trace_out_arg)

let smr_cmd =
  let run impl workers writes cost clients duration faults =
    let r =
      Psmr_harness.Smr.run
        ~mode:(Psmr_replica.Replica.Parallel { impl; workers })
        ~spec:{ write_pct = writes; cost }
        ~clients ?duration ~faults ()
    in
    Printf.printf
      "%s workers=%d writes=%g%% cost=%s clients=%d: %.1f kops/s, latency %.2f ms (p99 %.2f)\n"
      (Psmr_cos.Registry.to_string impl)
      workers writes
      (Psmr_workload.Workload.cost_label cost)
      clients r.kops r.mean_latency_ms r.p99_latency_ms;
    if not (Psmr_fault.Schedule.is_empty faults) then
      Printf.printf "faults: %s -> %d injected, %d views\n"
        (Psmr_fault.Schedule.to_string faults)
        r.faults_injected r.views
  in
  Cmd.v (Cmd.info "smr" ~doc:"One replicated-deployment measurement.")
    Term.(
      const run $ impl_arg $ workers_arg $ writes_arg $ cost_arg $ clients_arg
      $ duration_arg $ faults_arg)

(* The keyed standalone surface: one feeder racing W workers on the DES,
   with any backend from the early-scheduling registry — the early family
   ("early", "early-opt", "early-N") or any COS impl, fed an identical
   keyed command stream (docs/SCHEDULING.md). *)
let backend_conv =
  let parse s =
    match Psmr_early.Registry.of_string s with
    | Some b -> Ok b
    | None -> Error (`Msg (Printf.sprintf "unknown backend %S" s))
  in
  let print ppf b =
    Format.pp_print_string ppf (Psmr_early.Registry.to_string b)
  in
  Arg.conv (parse, print)

let backend_arg =
  Arg.(
    value
    & opt backend_conv (Psmr_early.Registry.Early Psmr_early.Early_intf.conservative)
    & info [ "impl" ] ~docv:"BACKEND"
        ~doc:
          "Execution backend: early, early-opt, early[-opt]-CLASSES, or any \
           COS implementation name (coarse, lockfree, indexed, ...).")

let keys_arg =
  Arg.(
    value & opt int 4096
    & info [ "keys" ] ~docv:"N" ~doc:"Key universe of the workload.")

let cross_arg =
  Arg.(
    value & opt float 2.0
    & info [ "cross" ] ~docv:"PCT"
        ~doc:"Percent of commands touching a second (possibly cross-class) key.")

let mis_arg =
  Arg.(
    value & opt float 0.0
    & info [ "mis" ] ~docv:"PCT"
        ~doc:
          "Mis-speculation rate of the optimistic delivery stream (early-opt \
           only).")

let batch_arg =
  Arg.(
    value & opt int 1
    & info [ "batch" ] ~docv:"N"
        ~doc:"Delivery batch size on the conservative submit path.")

let keyed_cmd =
  let run backend workers keys writes cross mis cost batch duration faults
      metrics =
    let spec =
      {
        Psmr_workload.Workload.Keyed.keys;
        write_pct = writes;
        cross_pct = cross;
        cost;
        mis_pct = mis;
      }
    in
    let r =
      Psmr_harness.Keyed_bench.run ~backend ~workers ~spec ~batch ?duration
        ~faults ~metrics ()
    in
    Printf.printf
      "%s workers=%d %s: %.1f kops/s (mean population %.1f)\n"
      (Psmr_early.Registry.to_string backend)
      workers
      (Format.asprintf "%a" Psmr_workload.Workload.Keyed.pp spec)
      r.kops r.mean_population;
    if r.wall_seconds > 0.0 then
      Printf.printf "engine: %d events in %.3fs wall (%.0f events/s)\n"
        r.engine_events r.wall_seconds
        (float_of_int r.engine_events /. r.wall_seconds);
    if r.direct + r.rendezvous > 0 then
      Printf.printf
        "classes: %d direct, %d rendezvous; repairs %d (revoked %d, dropped \
         %d)\n"
        r.direct r.rendezvous r.repairs r.revoked r.dropped;
    if not (Psmr_fault.Schedule.is_empty faults) then
      Printf.printf "faults: %s -> %d injected, %d workers crashed\n"
        (Psmr_fault.Schedule.to_string faults)
        r.faults_injected r.crashed_workers;
    match (metrics, r.metrics) with
    | true, Some m ->
        print_metrics m
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "keyed"
       ~doc:
         "One keyed-workload measurement: early scheduling vs COS on an \
          identical command stream.")
    Term.(
      const run $ backend_arg $ workers_arg $ keys_arg $ writes_arg $ cross_arg
      $ mis_arg $ cost_arg $ batch_arg $ duration_arg $ faults_arg
      $ metrics_arg)

(* The partitioned-ordering surface: the full Partition stack over the
   simulated LAN — N sequencers, deterministic merge, early class-map
   executor on the measured replica (docs/PARTITIONING.md). *)
let partitions_arg =
  Arg.(
    value & opt int 4
    & info [ "partitions" ] ~docv:"P"
        ~doc:"Number of independent sequencer instances.")

let replicas_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "replicas" ] ~docv:"N"
        ~doc:
          "Cluster size (default: the smallest odd cluster seating every \
           partition's leader on a distinct replica).")

let part_batch_arg =
  Arg.(
    value & opt int 16
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Feeder request batch: commands coalesced into one sequencer \
           submission — one Request wire per touched partition — per batch.")

let part_cmd =
  let run partitions replicas workers keys writes cross cost batch duration
      metrics =
    let spec =
      {
        Psmr_workload.Workload.Keyed.keys;
        write_pct = writes;
        cross_pct = cross;
        cost;
        mis_pct = 0.0;
      }
    in
    let r =
      Psmr_harness.Part_bench.run ~partitions ~workers ~spec ?replicas ~batch
        ?duration ~metrics ()
    in
    let replicas =
      match replicas with
      | Some n -> n
      | None -> Psmr_harness.Part_bench.default_replicas ~partitions
    in
    Printf.printf "%s: %.1f kops/s\n"
      (Psmr_harness.Part_bench.config_label ~partitions ~replicas ~workers
         ~batch spec)
      r.kops;
    Printf.printf
      "merge: %d emitted (%d singles, %d crosses), %d holes, %d pending, %d \
       views\n"
      r.emitted r.singles r.crosses r.holes r.merge_pending r.views;
    if r.wall_seconds > 0.0 then
      Printf.printf "engine: %d events in %.3fs wall (%.0f events/s)\n"
        r.engine_events r.wall_seconds
        (float_of_int r.engine_events /. r.wall_seconds);
    match (metrics, r.metrics) with
    | true, Some m ->
        print_metrics m
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "part"
       ~doc:
         "One partitioned-ordering measurement: sharded sequencers with \
          deterministic cross-partition merge.")
    Term.(
      const run $ partitions_arg $ replicas_arg $ workers_arg $ keys_arg
      $ writes_arg $ cross_arg $ cost_arg $ part_batch_arg $ duration_arg
      $ metrics_arg)

(* The open-loop surface: the repository benchmark's [Drive] offers a
   YCSB-style scenario to the replicated deployment in a ladder of rates,
   and reports each step's latency, censored commands included, and the
   highest rate meeting the SLO (docs/WORKLOADS.md). *)
module Open_loop = Psmr_harness.Open_loop
module Report = Psmr_benchmark.Report

let deployment_conv =
  let parse s =
    match Open_loop.target_of_string s with
    | Some d -> Ok d
    | None -> Error (`Msg (Printf.sprintf "unknown open-loop target %S" s))
  in
  Arg.conv
    (parse, fun ppf d -> Format.pp_print_string ppf (Open_loop.target_label d))

let deployment_arg =
  Arg.(
    value
    & opt deployment_conv
        (Option.get (Open_loop.target_of_string "indexed"))
    & info [ "impl" ] ~docv:"TARGET"
        ~doc:
          "Backend of a 3-replica single-sequencer deployment (coarse, \
           indexed, lockfree, early, early-opt, ...), or part$(b,P) for \
           $(b,P) partitions over the early-opt class map.")

let scenario_conv =
  let parse s =
    match Psmr_traffic.Scenario.of_string s with
    | Some n -> Ok n
    | None -> Error (`Msg (Printf.sprintf "unknown scenario %S (a-f)" s))
  in
  let print ppf n =
    Format.pp_print_string ppf (Psmr_traffic.Scenario.label n)
  in
  Arg.conv (parse, print)

let scenario_arg =
  Arg.(
    value
    & opt scenario_conv Psmr_traffic.Scenario.A
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:"YCSB-style scenario: a (update-heavy) .. f (read-modify-write).")

let rates_arg =
  Arg.(
    value
    & opt (list float) Open_loop.levels_kops
    & info [ "rates" ] ~docv:"KOPS,..."
        ~doc:"Offered-load steps, in thousands of ops per second.")

let step_arg =
  Arg.(
    value & opt float Open_loop.step
    & info [ "duration" ] ~docv:"SEC"
        ~doc:"Length of each offered-load step (virtual seconds).")

let open_loop_cmd =
  let run deployment scenario rates step =
    if rates = [] then invalid_arg "open-loop: --rates is empty";
    let w = Open_loop.ladder ~levels_kops:rates ~step deployment scenario in
    let steps = Open_loop.run w in
    Printf.printf "%s (%d replicas) %s: open-loop ladder, seed 1\n" w.name
      deployment.replicas
      (Psmr_traffic.Scenario.label scenario);
    Printf.printf "%10s %10s %8s %8s %11s %11s\n" "offered" "kops" "failed"
      "censored" "p50(ms)" "p99(ms)";
    let ms w q =
      match Report.quantile w q with
      | Some (v, lower_bound) ->
          Printf.sprintf "%s%.4f" (if lower_bound then ">=" else "") (v *. 1e3)
      | None -> "-"
    in
    List.iter
      (fun (level, (w : Report.window)) ->
        Printf.printf "%10.1f %10.1f %8d %8d %11s %11s\n" (level /. 1e3) w.kops
          w.failed w.censored (ms w 0.5) (ms w 0.99))
      steps;
    Printf.printf "max_kops_slo: %.1f\n" (Report.max_rate_slo steps /. 1e3)
  in
  Cmd.v
    (Cmd.info "open-loop"
       ~doc:
         "Latency under load: offer a ladder of rates to the replicated \
          deployment and report each step's throughput, failed and censored \
          commands, p50 and p99 (>= marks a censored lower bound), then the \
          highest rate meeting the SLO.")
    Term.(const run $ deployment_arg $ scenario_arg $ rates_arg $ step_arg)

let () =
  let info =
    Cmd.info "psmr-bench" ~version:"1.0.0"
      ~doc:
        "Reproduction harness for 'Boosting concurrency in Parallel State \
         Machine Replication' (Middleware '19)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig2_cmd; fig3_cmd; fig4_cmd; fig5_cmd; fig6_cmd; ablations_cmd;
            all_cmd; standalone_cmd; keyed_cmd; part_cmd; smr_cmd;
            open_loop_cmd;
          ]))
