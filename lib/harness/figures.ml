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

    Every figure, and every ablation sweep of standalone COS runs, is data:
    a list of named series of (x, point), where a point is a plain value
    naming one simulation.  [run_point] runs a point; a report gathers
    the points of all its figures into one {!Psmr_sim.Grid_runner.memo},
    so a point two figures share is simulated once. *)

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

(* --- points --- *)

type point =
  | Standalone of {
      backend : Psmr_early.Registry.backend;
      workers : int;
      spec : Workload.spec;
      max_size : int;
      batch : int;
    }
  | Replicated of {
      mode : Psmr_replica.Replica.mode;
      spec : Workload.spec;
      clients : int;
    }

(* What a report keeps of a run; [mean_latency_ms] is client-side, [0.]
   for standalone points. *)
type result = { kops : float; mean_latency_ms : float }
type plot = (string * (float * point) list) list

let note opts fmt =
  if opts.progress then Printf.eprintf (fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let cos_name impl = Psmr_early.Registry.to_string (Cos impl)

(* "<impl>, <n> workers": how the paper's legends name a configuration. *)
let at_workers impl workers =
  Printf.sprintf "%s, %d workers" (cos_name impl) workers

let describe = function
  | Standalone { backend; workers; spec; max_size; batch } ->
      Printf.sprintf "standalone %s w=%d %s %g%%w max=%d batch=%d"
        (Psmr_early.Registry.to_string backend)
        workers
        (Workload.cost_label spec.cost)
        spec.write_pct max_size batch
  | Replicated { mode; spec; clients } ->
      Printf.sprintf "replicated %s %s %g%%w c=%d"
        (match mode with
        | Parallel { impl; workers } -> at_workers impl workers
        | Sequential -> "sequential SMR"
        | Parallel_early _ | Parallel_early_opt _ | Partitioned _ -> "other")
        (Workload.cost_label spec.cost)
        spec.write_pct clients

(* Each point builds its own engine, RNG and sinks and never installs
   facade state (the fault plan and the metrics registry stay untouched
   on these paths), so a grid of them meets {!Psmr_sim.Grid_runner}'s
   discipline. *)
let run_point opts point =
  let r =
    match point with
    | Standalone { backend; workers; spec; max_size; batch } ->
        let r =
          Standalone.run ~backend ~workers ~workload:(Paper spec) ~max_size
            ~batch ~duration:opts.duration ~warmup:opts.warmup ()
        in
        { kops = r.kops; mean_latency_ms = 0.0 }
    | Replicated { mode; spec; clients } ->
        let r =
          Smr.run ~mode ~spec ~clients ~duration:opts.smr_duration
            ~warmup:opts.smr_warmup ()
        in
        (* Each replicated run allocates millions of simulation events;
           return the heap between runs so long sweeps stay within
           memory. *)
        Gc.compact ();
        { kops = r.kops; mean_latency_ms = r.mean_latency_ms }
  in
  note opts "%s: %.1f kops %.3f ms" (describe point) r.kops r.mean_latency_ms;
  r

let points plot = List.concat_map (fun (_, pts) -> List.map snd pts) plot

let lookup opts points =
  Psmr_sim.Grid_runner.memo ~jobs:opts.jobs (run_point opts) points

(* A plot's printable series, each point read through [y]. *)
let resolve find y plot =
  List.map
    (fun (name, pts) ->
      {
        Psmr_util.Table.name;
        points = List.map (fun (x, p) -> y x (find p)) pts;
      })
    plot

let kops x r = (x, r.kops)
let latency _ r = (r.kops, r.mean_latency_ms)
let draw opts plot = resolve (lookup opts (points plot)) kops plot

(* --- the paper's figures --- *)

let impls = Psmr_early.Registry.paper

let cos ?(max_size = Psmr_cos.Cos_intf.default_max_size) ?(batch = 1) impl
    ~workers write_pct cost =
  Standalone
    { backend = Cos impl; workers; spec = { write_pct; cost }; max_size; batch }

let over xs f = List.map (fun x -> (x, f x)) xs
let over_ints xs f = List.map (fun x -> (float_of_int x, f x)) xs

(* Figure 2: standalone, throughput vs workers, 0% writes. *)
let fig2_plot opts cost =
  List.map
    (fun impl ->
      ( cos_name impl,
        over_ints opts.workers (fun workers -> cos impl ~workers 0.0 cost) ))
    impls

(* Figure 3: standalone, throughput vs write percentage. *)
let fig3_plot opts cost =
  List.map
    (fun impl ->
      let workers = Model.fig3_best_workers cost impl in
      ( at_workers impl workers,
        over opts.write_pcts (fun pct -> cos impl ~workers pct cost) ))
    impls

let replicated ~clients mode write_pct cost =
  Replicated { mode; spec = { write_pct; cost }; clients }

let sequential = ("sequential SMR", Psmr_replica.Replica.Sequential)

(* Figure 4: replicated, throughput vs workers, 0% writes, with the
   sequential baseline drawn flat across the axis. *)
let fig4_plot opts cost =
  let at mode = replicated ~clients:opts.clients mode 0.0 cost in
  List.map
    (fun impl ->
      ( cos_name impl,
        over_ints opts.workers (fun workers ->
            at (Psmr_replica.Replica.Parallel { impl; workers })) ))
    impls
  @ [ (fst sequential, over_ints opts.workers (fun _ -> at (snd sequential))) ]

(* A parallel deployment at [impl]'s best Figure 5 worker count. *)
let best_parallel cost impl =
  let workers = Model.fig5_best_workers cost impl in
  (at_workers impl workers, Psmr_replica.Replica.Parallel { impl; workers })

(* Figure 5: replicated, throughput vs write percentage. *)
let fig5_plot opts cost =
  List.map
    (fun (name, mode) ->
      ( name,
        over opts.write_pcts (fun pct ->
            replicated ~clients:opts.clients mode pct cost) ))
    (List.map (best_parallel cost) impls @ [ sequential ])

(* Figure 6: latency versus throughput, moderate cost, per client count. *)
let fig6_plot opts ~write_pct =
  List.map
    (fun (name, mode) ->
      ( name,
        over_ints opts.client_sweep (fun clients ->
            replicated ~clients mode write_pct Workload.Moderate) ))
    (sequential
    :: List.map
         (best_parallel Workload.Moderate)
         Psmr_early.Registry.[ Fine; Coarse; Lockfree ])

(** For each mode: (throughput kops, mean latency ms) per client count. *)
let fig6 opts ~write_pct =
  let plot = fig6_plot opts ~write_pct in
  resolve (lookup opts (points plot)) latency plot

(* --- the ablation sweeps (see {!Ablations} for the bespoke runs) --- *)

(* A1 — the lock-granularity spectrum (§7.3.2 closes by calling whole-graph
   and per-node locks "two ends of a lock granularity spectrum"): the
   striped COS per stripe width, width 1 being the fine-grained locking
   discipline and 150 the whole graph. *)
let granularity =
  List.map
    (fun cost ->
      ( Workload.cost_label cost,
        over_ints [ 1; 2; 4; 8; 16; 32; 64; 150 ] (fun k ->
            cos (Psmr_early.Registry.Striped k) ~workers:16 5.0 cost) ))
    [ Workload.Light; Workload.Moderate ]

(* A2 — the dependency-graph bound the evaluation fixes at 150: small
   graphs starve workers (insert back-pressure), large ones lengthen every
   traversal of the list-based algorithms. *)
let graph_size =
  List.map
    (fun impl ->
      ( cos_name impl,
        over_ints [ 10; 25; 50; 100; 150; 300; 600; 1200 ] (fun max_size ->
            cos ~max_size impl ~workers:16 5.0 Workload.Moderate) ))
    impls

(* A3 — the 0.3%..2% conflict band §7.4.2 cites as realistic. *)
let realistic_conflicts =
  List.map
    (fun impl ->
      ( cos_name impl,
        over [ 0.3; 0.5; 0.75; 1.0; 1.25; 1.5; 2.0 ] (fun pct ->
            cos impl ~workers:16 pct Workload.Moderate) ))
    impls

(* A6 — the key-indexed insert against the lock-free scan baseline in the
   Figure 2 setup (light, 0% writes), with and without delivery-time
   batching: the insert thread is the bottleneck there, so removing its
   O(n) scan moves the whole curve. *)
let indexed_vs_scan =
  List.map
    (fun (name, impl, batch) ->
      ( name,
        over_ints [ 1; 2; 4; 8; 16; 32; 64 ] (fun workers ->
            cos ~batch impl ~workers 0.0 Workload.Light) ))
    Psmr_early.Registry.
      [
        ("lock-free (scan insert)", Lockfree, 1);
        ("indexed", Indexed, 1);
        ("indexed, batch 16", Indexed, 16);
      ]

(* A4 — early (queue-dispatch) scheduling against the lock-free and coarse
   COS, light cost: early wins at very low conflict rates and degrades
   faster as every write barriers all workers.  These are the COS series;
   the early series is {!Ablations.run_early}'s. *)
let early_vs_late_pcts = [ 0.; 1.; 5.; 10.; 15.; 25.; 50.; 100. ]

let early_vs_late =
  List.map
    (fun impl ->
      ( cos_name impl,
        over early_vs_late_pcts (fun pct ->
            cos impl ~workers:16 pct Workload.Light) ))
    Psmr_early.Registry.[ Lockfree; Coarse ]

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

(* One block of a report: the points it shows, and its text given the
   lookup that serves them. *)
type section = { plot : plot; text : (point -> result) -> string }

let figure opts ?csv ~title ~x_label plot =
  let text find =
    let s = resolve find kops plot in
    Option.iter (fun (file, x_label) -> maybe_csv opts ~file s ~x_label) csv;
    render_figure ~title ~x_label ~y_label:"kops/s" s
  in
  { plot; text }

let bespoke text = { plot = []; text = (fun _ -> text ()) }

(* Every section's points run in one memo, then every section renders. *)
let render opts sections =
  let find = lookup opts (List.concat_map (fun s -> points s.plot) sections) in
  String.concat "" (List.map (fun s -> s.text find) sections)

type throughput_figure = {
  number : int;
  plot : options -> Workload.cost_class -> plot;
  caption : string;
  x_label : string;
  csv_x : string;
  summary : string;
}

let throughput_figures =
  let row number plot caption x_label csv_x summary =
    { number; plot; caption; x_label; csv_x; summary }
  in
  [
    row 2 fig2_plot "standalone, 0% writes" "workers" "workers"
      "Standalone COS: throughput vs workers.";
    row 3 fig3_plot "standalone, best workers" "% writes" "write_pct"
      "Standalone COS: throughput vs write percentage.";
    row 4 fig4_plot "replicated, 0% writes" "workers" "workers"
      "Replicated SMR: throughput vs workers.";
    row 5 fig5_plot "replicated, best workers" "% writes" "write_pct"
      "Replicated SMR: throughput vs write percentage.";
  ]

let throughput_section opts f cost =
  let label = Workload.cost_label cost in
  figure opts
    ~csv:(Printf.sprintf "fig%d_%s.csv" f.number label, f.csv_x)
    ~title:(Printf.sprintf "Figure %d (%s): %s" f.number label f.caption)
    ~x_label:f.x_label (f.plot opts cost)

let fig6_section opts ~write_pct =
  let plot = fig6_plot opts ~write_pct in
  let text find =
    let s = resolve find latency plot in
    maybe_csv opts ~file:(Printf.sprintf "fig6_%gpct.csv" write_pct) s
      ~x_label:"kops";
    Printf.sprintf
      "## Figure 6 (%g%% writes): latency vs throughput, moderate cost\n\n\
       %s\n"
      write_pct (fig6_table s)
  in
  { plot; text }

let render_throughput_figure opts f cost =
  render opts [ throughput_section opts f cost ]

let render_fig6 opts ~write_pct = render opts [ fig6_section opts ~write_pct ]

let paper_sections opts =
  List.concat_map
    (fun f -> List.map (throughput_section opts f) Workload.all_costs)
    throughput_figures
  @ List.map (fun write_pct -> fig6_section opts ~write_pct) [ 5.0; 10.0 ]

let failover_text () =
  let { Ablations.timeline; views; outage } = Ablations.failover_timeline () in
  Printf.sprintf
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
          timeline))

let ablation_sections opts =
  let early () =
    {
      Psmr_util.Table.name = "early scheduling";
      points =
        over early_vs_late_pcts (fun pct ->
            Ablations.run_early ~workers:16
              ~spec:{ Workload.write_pct = pct; cost = Workload.Light }
              ~duration:opts.duration ~warmup:opts.warmup ());
    }
  in
  [
    figure opts
      ~title:
        "Ablation: lock granularity spectrum (striped COS, 16 workers, 5% \
         writes)"
      ~x_label:"stripe width" granularity;
    figure opts
      ~title:
        "Ablation: dependency-graph bound (moderate, 5% writes, 16 workers)"
      ~x_label:"max graph size" graph_size;
    figure opts
      ~title:"Ablation: realistic conflict band 0.3-2% (moderate, 16 workers)"
      ~x_label:"% writes" realistic_conflicts;
    figure opts
      ~title:"Ablation: indexed vs scan-based insert (light, 0% writes)"
      ~x_label:"workers" indexed_vs_scan;
    bespoke (fun () ->
        render_figure
          ~title:"Ablation: per-insert cost vs graph population (no workers)"
          ~x_label:"population" ~y_label:"ns/insert"
          (Ablations.insert_cost_vs_population ()));
    {
      plot = early_vs_late;
      text =
        (fun find ->
          render_figure
            ~title:"Ablation: early vs late scheduling (light, 16 workers)"
            ~x_label:"% writes" ~y_label:"kops/s"
            (early () :: resolve find kops early_vs_late));
    };
    bespoke failover_text;
  ]

let render_ablations opts = render opts (ablation_sections opts)

let run_all ?(opts = default_options) () =
  "# Reproduction report: figures 2-6\n\n"
  ^ render opts (paper_sections opts @ ablation_sections opts)
