(** Definitions of every figure in the paper's evaluation (§7), each
    regenerated from the simulation model:

    - Figure 2 (a,b,c): standalone COS throughput vs. number of workers,
      0% writes, for light/moderate/heavy execution costs;
    - Figure 3 (a,b,c): standalone throughput vs. write percentage at each
      algorithm's best worker count;
    - Figure 4 (a,b,c): replicated (3-replica SMR) throughput vs. workers,
      plus the sequential-SMR baseline;
    - Figure 5 (a,b,c): replicated throughput vs. write percentage plus
      sequential SMR;
    - Figure 6 (a,b): latency vs. throughput for the moderate cost at 5% and
      10% writes, sweeping the number of closed-loop clients.

    Each function returns printable series; {!run_all} renders the full
    report and optionally CSV files. *)

open Psmr_workload

type options = {
  duration : float;  (** standalone measurement window (virtual seconds) *)
  warmup : float;
  smr_duration : float;
  smr_warmup : float;
  workers : int list;  (** x-axis of Figures 2 and 4 *)
  write_pcts : float list;  (** x-axis of Figures 3 and 5 *)
  clients : int;  (** closed-loop clients for Figures 4 and 5 *)
  client_sweep : int list;  (** load points for Figure 6 *)
  csv_dir : string option;  (** write CSV files here when set *)
  progress : bool;  (** log each run to stderr *)
  jobs : int;  (** domains for independent grid points (1 = sequential) *)
}

let default_options =
  {
    duration = Standalone.default_duration;
    warmup = Standalone.default_warmup;
    smr_duration = Smr.default_duration;
    smr_warmup = Smr.default_warmup;
    workers = Workload.paper_worker_counts;
    write_pcts = Workload.paper_write_percentages;
    clients = 200;
    client_sweep = [ 2; 5; 10; 20; 40; 80; 120; 160; 200 ];
    csv_dir = None;
    progress = true;
    jobs = 1;
  }

(** Subsampled axes for quick smoke runs. *)
let fast_options =
  {
    default_options with
    duration = 0.04;
    warmup = 0.01;
    smr_duration = 0.15;
    smr_warmup = 0.05;
    workers = [ 1; 2; 4; 8; 16; 32; 64 ];
    write_pcts = [ 0.; 5.; 15.; 50.; 100. ];
    client_sweep = [ 10; 50; 100; 200 ];
  }

let impls = Psmr_cos.Registry.paper

let note opts fmt =
  if opts.progress then Printf.eprintf (fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

(* Every figure below is a flattened grid of independent simulation
   points, fanned out over [opts.jobs] domains.  Each point builds its own
   engine, RNG and sinks and never installs facade state (the fault plan
   and the metrics registry stay untouched on these paths), so the grid
   meets {!Psmr_sim.Grid_runner}'s discipline: results come back in input
   order and the rendered output is byte-identical for any [jobs].  With
   [jobs = 1] the map degenerates to a plain sequential [Array.map] in
   this domain. *)
let par_map opts f xs =
  Array.to_list (Psmr_sim.Grid_runner.map ~jobs:opts.jobs f (Array.of_list xs))

(* --- Figure 2: standalone, throughput vs workers, 0% writes --- *)

let fig2 opts cost =
  let grid =
    List.concat_map
      (fun impl -> List.map (fun w -> (impl, w)) opts.workers)
      impls
  in
  let kops =
    par_map opts
      (fun (impl, w) ->
        let r =
          Standalone.run ~backend:(Cos impl) ~workers:w
            ~workload:(Paper { write_pct = 0.0; cost })
            ~duration:opts.duration ~warmup:opts.warmup ()
        in
        note opts "fig2 %s %s w=%d: %.1f kops"
          (Workload.cost_label cost)
          (Psmr_cos.Registry.to_string impl)
          w r.kops;
        r.kops)
      grid
  in
  let tbl = List.combine grid kops in
  List.map
    (fun impl ->
      let points =
        List.map
          (fun w -> (float_of_int w, List.assoc (impl, w) tbl))
          opts.workers
      in
      { Psmr_util.Table.name = Psmr_cos.Registry.to_string impl; points })
    impls

(* --- Figure 3: standalone, throughput vs write percentage --- *)

let fig3 opts cost =
  let grid =
    List.concat_map
      (fun impl ->
        let workers = Model.fig3_best_workers cost impl in
        List.map (fun pct -> (impl, workers, pct)) opts.write_pcts)
      impls
  in
  let kops =
    par_map opts
      (fun (impl, workers, pct) ->
        let r =
          Standalone.run ~backend:(Cos impl) ~workers
            ~workload:(Paper { write_pct = pct; cost })
            ~duration:opts.duration ~warmup:opts.warmup ()
        in
        note opts "fig3 %s %s %g%%w: %.1f kops"
          (Workload.cost_label cost)
          (Psmr_cos.Registry.to_string impl)
          pct r.kops;
        r.kops)
      grid
  in
  let tbl = List.combine grid kops in
  List.map
    (fun impl ->
      let workers = Model.fig3_best_workers cost impl in
      let points =
        List.map
          (fun pct -> (pct, List.assoc (impl, workers, pct) tbl))
          opts.write_pcts
      in
      {
        Psmr_util.Table.name =
          Printf.sprintf "%s, %d workers"
            (Psmr_cos.Registry.to_string impl)
            workers;
        points;
      })
    impls

(* --- Figure 4: replicated, throughput vs workers, 0% writes --- *)

let smr_point opts ~mode ~spec ~clients () =
  let r =
    Smr.run ~mode ~spec ~clients ~duration:opts.smr_duration
      ~warmup:opts.smr_warmup ()
  in
  (* Each replicated run allocates millions of simulation events; return the
     heap between runs so long sweeps stay within memory. *)
  Gc.compact ();
  r

let fig4 opts cost =
  let spec = { Workload.write_pct = 0.0; cost } in
  let grid =
    List.concat_map
      (fun impl -> List.map (fun w -> Some (impl, w)) opts.workers)
      impls
    @ [ None ]
  in
  let kops =
    par_map opts
      (fun point ->
        match point with
        | Some (impl, w) ->
            let r =
              smr_point opts
                ~mode:(Psmr_replica.Replica.Parallel { impl; workers = w })
                ~spec ~clients:opts.clients ()
            in
            note opts "fig4 %s %s w=%d: %.1f kops"
              (Workload.cost_label cost)
              (Psmr_cos.Registry.to_string impl)
              w r.kops;
            r.kops
        | None ->
            let r =
              smr_point opts ~mode:Psmr_replica.Replica.Sequential ~spec
                ~clients:opts.clients ()
            in
            note opts "fig4 %s sequential: %.1f kops"
              (Workload.cost_label cost)
              r.kops;
            r.kops)
      grid
  in
  let tbl = List.combine grid kops in
  let parallel_series =
    List.map
      (fun impl ->
        let points =
          List.map
            (fun w -> (float_of_int w, List.assoc (Some (impl, w)) tbl))
            opts.workers
        in
        { Psmr_util.Table.name = Psmr_cos.Registry.to_string impl; points })
      impls
  in
  let seq_kops = List.assoc None tbl in
  let seq_series =
    {
      Psmr_util.Table.name = "sequential SMR";
      points = List.map (fun w -> (float_of_int w, seq_kops)) opts.workers;
    }
  in
  parallel_series @ [ seq_series ]

(* --- Figure 5: replicated, throughput vs write percentage --- *)

let fig5 opts cost =
  let modes =
    List.map
      (fun impl ->
        let workers = Model.fig5_best_workers cost impl in
        ( Printf.sprintf "%s, %d workers"
            (Psmr_cos.Registry.to_string impl)
            workers,
          Psmr_replica.Replica.Parallel { impl; workers } ))
      impls
    @ [ ("sequential SMR", Psmr_replica.Replica.Sequential) ]
  in
  let grid =
    List.concat_map
      (fun (name, mode) -> List.map (fun pct -> (name, mode, pct)) opts.write_pcts)
      modes
  in
  let kops =
    par_map opts
      (fun (name, mode, pct) ->
        let r =
          smr_point opts ~mode
            ~spec:{ Workload.write_pct = pct; cost }
            ~clients:opts.clients ()
        in
        note opts "fig5 %s %s %g%%w: %.1f kops" (Workload.cost_label cost)
          name pct r.kops;
        r.kops)
      grid
  in
  let tbl =
    List.combine (List.map (fun (name, _, pct) -> (name, pct)) grid) kops
  in
  List.map
    (fun (name, _) ->
      let points =
        List.map (fun pct -> (pct, List.assoc (name, pct) tbl)) opts.write_pcts
      in
      { Psmr_util.Table.name = name; points })
    modes

(* --- Figure 6: latency versus throughput, moderate cost --- *)

type fig6_mode = { label : string; mode : Psmr_replica.Replica.mode }

let fig6_modes =
  [
    { label = "sequential SMR"; mode = Psmr_replica.Replica.Sequential };
    {
      label = "fine-grained, 6 workers";
      mode = Parallel { impl = Psmr_cos.Registry.Fine; workers = 6 };
    };
    {
      label = "coarse-grained, 12 workers";
      mode = Parallel { impl = Psmr_cos.Registry.Coarse; workers = 12 };
    };
    {
      label = "lock-free, 32 workers";
      mode = Parallel { impl = Psmr_cos.Registry.Lockfree; workers = 32 };
    };
  ]

(** For each mode: (throughput kops, mean latency ms) per client count. *)
let fig6 opts ~write_pct =
  let spec = { Workload.write_pct; cost = Workload.Moderate } in
  let grid =
    List.concat_map
      (fun { label; mode } ->
        List.map (fun clients -> (label, mode, clients)) opts.client_sweep)
      fig6_modes
  in
  let results =
    par_map opts
      (fun (label, mode, clients) ->
        let r = smr_point opts ~mode ~spec ~clients () in
        note opts "fig6 %g%%w %s c=%d: %.1f kops %.2f ms" write_pct label
          clients r.kops r.mean_latency_ms;
        (r.kops, r.mean_latency_ms))
      grid
  in
  let tbl =
    List.combine
      (List.map (fun (label, _, clients) -> (label, clients)) grid)
      results
  in
  List.map
    (fun { label; mode = _ } ->
      let points =
        List.map
          (fun clients -> List.assoc (label, clients) tbl)
          opts.client_sweep
      in
      { Psmr_util.Table.name = label; points })
    fig6_modes

(* --- rendering --- *)

let maybe_csv opts ~file series ~x_label =
  match opts.csv_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir file in
      let oc = open_out path in
      output_string oc (Psmr_util.Table.csv_of_series ~x_label series);
      close_out oc

let render_figure ~title ~x_label ~y_label series =
  Printf.sprintf "## %s\n\n%s\n" title
    (Psmr_util.Table.render_series ~x_label ~y_label series)

let fig6_table series =
  (* Latency-vs-throughput does not share x values across modes; print one
     block per mode. *)
  String.concat "\n"
    (List.map
       (fun (s : Psmr_util.Table.series) ->
         let rows =
           List.map
             (fun (kops, lat) ->
               [ Printf.sprintf "%.1f" kops; Printf.sprintf "%.3f" lat ])
             s.points
         in
         Printf.sprintf "%s:\n%s" s.name
           (Psmr_util.Table.render
              ~header:[ "throughput (kops/s)"; "latency (ms)" ]
              rows))
       series)

(* --- ablations (see {!Ablations}) --- *)

let render_ablations opts =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let d = opts.duration and w = opts.warmup in
  out "## Ablation: lock granularity spectrum (striped COS, 16 workers, 5%% writes)\n\n%s\n"
    (Psmr_util.Table.render_series ~x_label:"stripe width" ~y_label:"kops/s"
       (Ablations.granularity ~duration:d ~warmup:w ()));
  out "## Ablation: dependency-graph bound (moderate, 5%% writes, 16 workers)\n\n%s\n"
    (Psmr_util.Table.render_series ~x_label:"max graph size" ~y_label:"kops/s"
       (Ablations.graph_size ~duration:d ~warmup:w ()));
  out "## Ablation: realistic conflict band 0.3-2%% (moderate, 16 workers)\n\n%s\n"
    (Psmr_util.Table.render_series ~x_label:"% writes" ~y_label:"kops/s"
       (Ablations.realistic_conflicts ~duration:d ~warmup:w ()));
  out "## Ablation: indexed vs scan-based insert (light, 0%% writes)\n\n%s\n"
    (Psmr_util.Table.render_series ~x_label:"workers" ~y_label:"kops/s"
       (Ablations.indexed_vs_scan ~duration:d ~warmup:w ()));
  out "## Ablation: per-insert cost vs graph population (no workers)\n\n%s\n"
    (Psmr_util.Table.render_series ~x_label:"population" ~y_label:"ns/insert"
       (Ablations.insert_cost_vs_population ()));
  out "## Ablation: early vs late scheduling (light, 16 workers)\n\n%s\n"
    (Psmr_util.Table.render_series ~x_label:"% writes" ~y_label:"kops/s"
       (Ablations.early_vs_late ~duration:d ~warmup:w ()));
  let { Ablations.timeline; views; outage } = Ablations.failover_timeline () in
  out
    "## Ablation: leader-crash failover timeline (lock-free, 16 workers, crash at t=0.30s)\n\n\
     views installed by survivors: %d\n\
     outage: %s (crash to the first bucket back above 90%% of pre-crash \
     kops)\n\
     %s\n"
    views
    (match outage with
    | Some o -> Printf.sprintf "%.0f ms" (o *. 1e3)
    | None -> "not recovered")
    (Psmr_util.Table.render
       ~header:[ "t (s)"; "kops/s" ]
       (List.map
          (fun (t, k) -> [ Printf.sprintf "%.2f" t; Printf.sprintf "%.1f" k ])
          timeline));
  Buffer.contents buf

let run_all ?(opts = default_options) () =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "# Reproduction report: figures 2-6\n\n";
  List.iter
    (fun cost ->
      let label = Workload.cost_label cost in
      let s2 = fig2 opts cost in
      maybe_csv opts ~file:(Printf.sprintf "fig2_%s.csv" label) s2
        ~x_label:"workers";
      out "%s"
        (render_figure
           ~title:(Printf.sprintf "Figure 2 (%s): standalone, 0%% writes" label)
           ~x_label:"workers" ~y_label:"kops/s" s2))
    Workload.all_costs;
  List.iter
    (fun cost ->
      let label = Workload.cost_label cost in
      let s3 = fig3 opts cost in
      maybe_csv opts ~file:(Printf.sprintf "fig3_%s.csv" label) s3
        ~x_label:"write_pct";
      out "%s"
        (render_figure
           ~title:
             (Printf.sprintf "Figure 3 (%s): standalone, best workers" label)
           ~x_label:"% writes" ~y_label:"kops/s" s3))
    Workload.all_costs;
  List.iter
    (fun cost ->
      let label = Workload.cost_label cost in
      let s4 = fig4 opts cost in
      maybe_csv opts ~file:(Printf.sprintf "fig4_%s.csv" label) s4
        ~x_label:"workers";
      out "%s"
        (render_figure
           ~title:(Printf.sprintf "Figure 4 (%s): replicated, 0%% writes" label)
           ~x_label:"workers" ~y_label:"kops/s" s4))
    Workload.all_costs;
  List.iter
    (fun cost ->
      let label = Workload.cost_label cost in
      let s5 = fig5 opts cost in
      maybe_csv opts ~file:(Printf.sprintf "fig5_%s.csv" label) s5
        ~x_label:"write_pct";
      out "%s"
        (render_figure
           ~title:
             (Printf.sprintf "Figure 5 (%s): replicated, best workers" label)
           ~x_label:"% writes" ~y_label:"kops/s" s5))
    Workload.all_costs;
  List.iter
    (fun pct ->
      let s6 = fig6 opts ~write_pct:pct in
      maybe_csv opts
        ~file:(Printf.sprintf "fig6_%gpct.csv" pct)
        s6 ~x_label:"kops";
      out "## Figure 6 (%g%% writes): latency vs throughput, moderate cost\n\n%s\n"
        pct (fig6_table s6))
    [ 5.0; 10.0 ];
  if opts.progress then Printf.eprintf "running ablations...\n%!";
  Buffer.add_string buf (render_ablations opts);
  Buffer.contents buf
