(* Benchmark entry point.

   Part 1 — Bechamel micro-benchmarks of the real (OS-thread platform) data
   structures: per-operation cost of each COS implementation, the linked-list
   service scans, and supporting structures.  These ground the simulation
   cost model (see EXPERIMENTS.md); the hashtbl group calibrates the [Hash]
   work kind charged by the key-indexed insert.

   Part 2 — a machine-readable summary, BENCH_cos.json: per-implementation
   micro costs, the simulated Fig. 2 standalone throughput (light cost,
   0% writes) for the scan-based and indexed inserts plus the early
   class-map dispatcher, and the keyed low-conflict comparison at 32
   workers (early vs early-opt under a mis-speculation sweep vs the COS
   family).  All simulated points are memoized on their full
   configuration, so a config shared between sections runs once.

   Part 3 — regeneration of every figure of the paper's evaluation (Figures
   2-6) through the simulation harness.  Set PSMR_BENCH_FAST=1 for a
   subsampled smoke run; set PSMR_BENCH_SKIP_FIGURES=1 to run only the
   micro-benchmarks; set PSMR_BENCH_SMOKE=1 for a time-boxed everything
   (short quotas, short simulation windows, no figures) — the @bench-smoke
   alias.  PSMR_BENCH_DIFF_ONLY=1 regenerates only the simulated sections
   and compares them with the report at PSMR_BENCH_JSON — the @bench-diff
   alias. *)

open Bechamel
open Toolkit

module RP = Psmr_platform.Real_platform

(* One insert+get+remove cycle on a COS pre-filled to a given population:
   the steady-state per-command cost of the structure itself. *)
let cos_cycle impl ~population ~writes =
  let (module S : Psmr_cos.Cos_intf.S with type cmd = bool) =
    Psmr_cos.Registry.instantiate_keyed impl (module RP)
      (module Psmr_harness.Standalone.Rw)
  in
  let t = S.create ~max_size:150 () in
  let rng = Psmr_util.Rng.create ~seed:1L in
  for _ = 1 to population do
    S.insert t (Psmr_util.Rng.below_percent rng writes)
  done;
  Staged.stage (fun () ->
      S.insert t (Psmr_util.Rng.below_percent rng writes);
      match S.get t with
      | Some h -> S.remove t h
      | None -> assert false)

let bench_impls = Psmr_cos.Registry.paper @ [ Psmr_cos.Registry.Indexed ]

let cos_tests =
  Test.make_grouped ~name:"cos-cycle"
    (List.concat_map
       (fun impl ->
         List.map
           (fun pop ->
             Test.make
               ~name:
                 (Printf.sprintf "%s/pop%d"
                    (Psmr_cos.Registry.to_string impl)
                    pop)
               (cos_cycle impl ~population:pop ~writes:10.0))
           [ 1; 50; 140 ])
       bench_impls)

(* Calibration for the [Hash] work kind: one lookup-or-update on an
   int-keyed table at the population the COS index reaches in steady state
   (a command's footprint keys over a live graph of ~150). *)
let hashtbl_tests =
  let h : (int, int) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to 149 do
    Hashtbl.replace h i i
  done;
  let rng = Psmr_util.Rng.create ~seed:4L in
  Test.make_grouped ~name:"hashtbl"
    [
      Test.make ~name:"find-150"
        (Staged.stage (fun () ->
             ignore
               (Hashtbl.find_opt h (Psmr_util.Rng.int rng 150) : int option)));
      Test.make ~name:"replace-150"
        (Staged.stage (fun () ->
             let k = Psmr_util.Rng.int rng 150 in
             Hashtbl.replace h k k));
    ]

let list_tests =
  let scan size =
    let l = Psmr_app.Linked_list.create ~initial_size:size in
    let rng = Psmr_util.Rng.create ~seed:2L in
    Staged.stage (fun () ->
        ignore
          (Psmr_app.Linked_list.execute l
             (Contains (Psmr_util.Rng.int rng size))
            : bool))
  in
  Test.make_grouped ~name:"linked-list"
    [
      Test.make ~name:"contains/1k" (scan 1_000);
      Test.make ~name:"contains/10k" (scan 10_000);
    ]

let util_tests =
  let rng = Psmr_util.Rng.create ~seed:3L in
  let heap = Psmr_util.Heap.create ~cmp:compare in
  let hist = Psmr_util.Histogram.create () in
  Test.make_grouped ~name:"util"
    [
      Test.make ~name:"rng-int"
        (Staged.stage (fun () -> ignore (Psmr_util.Rng.int rng 1000 : int)));
      Test.make ~name:"heap-push-pop"
        (Staged.stage (fun () ->
             Psmr_util.Heap.add heap (Psmr_util.Rng.int rng 1000);
             ignore (Psmr_util.Heap.pop heap : int option)));
      Test.make ~name:"histogram-record"
        (Staged.stage (fun () -> Psmr_util.Histogram.record hist 0.0012));
    ]

let atomic_tests =
  let a = Atomic.make 0 in
  let m = Mutex.create () in
  Test.make_grouped ~name:"primitives"
    [
      Test.make ~name:"atomic-cas"
        (Staged.stage (fun () ->
             ignore (Atomic.compare_and_set a (Atomic.get a) 1 : bool)));
      Test.make ~name:"mutex-lock-unlock"
        (Staged.stage (fun () ->
             Mutex.lock m;
             Mutex.unlock m));
    ]

(* Runs the micro suite, prints the table, and returns (name, ns/op) for the
   JSON summary. *)
let run_micro ~smoke () =
  let cfg =
    if smoke then Benchmark.cfg ~limit:200 ~quota:(Time.second 0.05) ~kde:None ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let tests =
    Test.make_grouped ~name:"micro"
      [ atomic_tests; util_tests; hashtbl_tests; list_tests; cos_tests ]
  in
  let raws = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Instance.monotonic_clock raws
  in
  print_endline "# Micro-benchmarks (real threads, this machine)\n";
  let measured =
    Hashtbl.fold
      (fun name result acc ->
        let ns =
          match Analyze.OLS.estimates result with
          | Some [ e ] -> Some e
          | Some _ | None -> None
        in
        let r2 =
          match Analyze.OLS.r_square result with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "n/a"
        in
        (name, ns, r2) :: acc)
      ols []
    |> List.sort compare
  in
  let rows =
    List.map
      (fun (name, ns, r2) ->
        let ns =
          match ns with Some e -> Printf.sprintf "%.1f" e | None -> "n/a"
        in
        [ name; ns; r2 ])
      measured
  in
  print_string
    (Psmr_util.Table.render ~header:[ "benchmark"; "ns/op"; "r-sq" ] rows);
  print_newline ();
  List.filter_map
    (fun (name, ns, _) -> Option.map (fun e -> (name, e)) ns)
    measured

(* One simulated standalone point, memoized on its full configuration
   (impl, workers, batch, workload, smoke): the Fig. 2 grid and the keyed
   comparison below both draw from this table, so a configuration that
   appears under several labels — or a worker count repeated across
   sections — is simulated exactly once.  COS impls on the plain workload
   go through [Standalone]; anything with a keyed spec (the early family,
   or a COS impl raced against it) goes through [Keyed_bench], which also
   reports the dispatcher's class statistics. *)
type sim_row = {
  s_kops : float;
  s_direct : int;
  s_rendezvous : int;
  s_repairs : int;
  s_revoked : int;
  s_spec_execs : int;
  s_rollbacks : int;
  s_redos : int;
}

let fig2_spec =
  { Psmr_workload.Workload.write_pct = 0.0; cost = Psmr_workload.Workload.Light }

type sim_config = {
  c_impl : string;
  c_workers : int;
  c_batch : int;
  c_keyed : Psmr_workload.Workload.Keyed.spec option;
}

let config_key ~smoke c =
  Printf.sprintf "%s/w%d/b%d/%s/%b" c.c_impl c.c_workers c.c_batch
    (match c.c_keyed with
    | None -> "fig2"
    | Some spec -> Format.asprintf "%a" Psmr_workload.Workload.Keyed.pp spec)
    smoke

(* One point, computed from its configuration alone: its own engine, RNG
   and sinks, no facade state — safe to run on a parallel domain. *)
let compute_point ~smoke c =
  let duration, warmup = if smoke then (0.02, 0.005) else (0.08, 0.02) in
  match c.c_keyed with
  | Some spec ->
      let backend =
        match Psmr_early.Registry.of_string c.c_impl with
        | Some b -> b
        | None -> invalid_arg ("sim_point: unknown backend " ^ c.c_impl)
      in
      let r =
        Psmr_harness.Keyed_bench.run ~backend ~workers:c.c_workers ~spec
          ~batch:c.c_batch ~duration ~warmup ()
      in
      {
        s_kops = r.Psmr_harness.Keyed_bench.kops;
        s_direct = r.direct;
        s_rendezvous = r.rendezvous;
        s_repairs = r.repairs;
        s_revoked = r.revoked;
        s_spec_execs = r.spec_execs;
        s_rollbacks = r.rollbacks;
        s_redos = r.redos;
      }
  | None ->
      let ci =
        match Psmr_cos.Registry.of_string c.c_impl with
        | Some i -> i
        | None -> invalid_arg ("sim_point: unknown COS impl " ^ c.c_impl)
      in
      let r =
        Psmr_harness.Standalone.run ~impl:ci ~workers:c.c_workers
          ~batch:c.c_batch ~spec:fig2_spec ~duration ~warmup ()
      in
      {
        s_kops = r.Psmr_harness.Standalone.kops;
        s_direct = 0;
        s_rendezvous = 0;
        s_repairs = 0;
        s_revoked = 0;
        s_spec_execs = 0;
        s_rollbacks = 0;
        s_redos = 0;
      }

let sim_memo : (string, sim_row) Hashtbl.t = Hashtbl.create 32

(* Compute a batch of configurations on [jobs] domains and fill the memo
   (main domain only — the table is never touched from helpers).  Because
   every point is independent and deterministic, the memo ends up with
   exactly the values a sequential run would compute, so the JSON emitted
   from it is byte-identical for any [jobs]. *)
let prefill_points ~smoke ~jobs configs =
  let todo =
    List.filter
      (fun c -> not (Hashtbl.mem sim_memo (config_key ~smoke c)))
      configs
    |> List.sort_uniq compare
  in
  let results =
    Psmr_sim.Grid_runner.map ~jobs (compute_point ~smoke) (Array.of_list todo)
  in
  List.iteri
    (fun i c -> Hashtbl.replace sim_memo (config_key ~smoke c) results.(i))
    todo

let sim_point ~smoke ~impl ~workers ?(batch = 1) ?keyed () =
  let c = { c_impl = impl; c_workers = workers; c_batch = batch; c_keyed = keyed } in
  let key = config_key ~smoke c in
  match Hashtbl.find_opt sim_memo key with
  | Some r -> r
  | None ->
      let r = compute_point ~smoke c in
      Hashtbl.add sim_memo key r;
      r

(* Simulated Fig. 2 points for the JSON summary: standalone throughput at
   light cost, 0% writes, for the scan-based baseline, the indexed insert
   with and without delivery batching, and the early dispatcher (keyed
   low-conflict workload at 0% writes — footprints are needed for the
   class map, the cost profile matches). *)
let fig2_grid =
  let keyed0 =
    { Psmr_workload.Workload.Keyed.low_conflict with write_pct = 0.0 }
  in
  [
    ("lockfree", "lockfree", 1, None);
    ("indexed", "indexed", 1, None);
    ("indexed_batch16", "indexed", 16, None);
    ("early", "early", 1, Some keyed0);
    ("early_opt", "early-opt", 1, Some keyed0);
  ]

let fig2_workers = [ 16; 32; 64 ]

let fig2_configs =
  List.concat_map
    (fun w ->
      List.map
        (fun (_, impl, batch, keyed) ->
          { c_impl = impl; c_workers = w; c_batch = batch; c_keyed = keyed })
        fig2_grid)
    fig2_workers

let sim_fig2 ~smoke () =
  List.concat_map
    (fun w ->
      List.map
        (fun (label, impl, batch, keyed) ->
          (w, label, (sim_point ~smoke ~impl ~workers:w ~batch ?keyed ()).s_kops))
        fig2_grid)
    fig2_workers

(* The acceptance comparison (docs/SCHEDULING.md): the keyed low-conflict
   workload at 32 workers — early scheduling, conservative and optimistic
   under a mis-speculation sweep, against the COS family fed the identical
   command stream.  Rows carry the dispatcher's class statistics so the
   fast-path share is visible next to the throughput. *)
let keyed_configs =
  let base = Psmr_workload.Workload.Keyed.low_conflict in
  let pt ?(mis = 0.0) ?(batch = 1) impl =
    {
      c_impl = impl;
      c_workers = 32;
      c_batch = batch;
      c_keyed = Some { base with mis_pct = mis };
    }
  in
  [
    pt "early"; pt "early-opt"; pt ~mis:0.1 "early-opt";
    pt ~mis:1.0 "early-opt"; pt ~mis:5.0 "early-opt";
    pt ~mis:10.0 "early-opt"; pt "indexed"; pt ~batch:16 "indexed";
    pt "lockfree";
  ]

let sim_keyed ~smoke () =
  let base = Psmr_workload.Workload.Keyed.low_conflict in
  let pt ?(mis = 0.0) ?(batch = 1) impl =
    sim_point ~smoke ~impl ~workers:32 ~batch
      ~keyed:{ base with mis_pct = mis }
      ()
  in
  [
    ("early", 0.0, pt "early");
    ("early_opt_mis0", 0.0, pt "early-opt");
    ("early_opt_mis0_1", 0.1, pt ~mis:0.1 "early-opt");
    ("early_opt_mis1", 1.0, pt ~mis:1.0 "early-opt");
    ("early_opt_mis5", 5.0, pt ~mis:5.0 "early-opt");
    ("early_opt_mis10", 10.0, pt ~mis:10.0 "early-opt");
    ("indexed", 0.0, pt "indexed");
    ("indexed_batch16", 0.0, pt ~batch:16 "indexed");
    ("lockfree", 0.0, pt "lockfree");
  ]

(* Partitioned-ordering grid (docs/PARTITIONING.md): the Partition stack
   over the simulated LAN, partitions × workers, via [Part_bench].  Light
   rows are ordering-bound — execution is cheap enough that the sequencer's
   per-command ingestion is the bottleneck, so throughput scales with
   partitions (the acceptance ratio below).  Moderate rows show the
   interplay with execution: at w8 the executor caps both sides and
   partitioning buys nothing; at w32 it partially unbinds.  The 100%-cross
   rows are the graceful-degradation bound: every command rendezvouses in
   the merge and serializes classwise in the dispatcher, so throughput
   drops but nothing wedges (no holes pile up, no view changes).  Points
   are memoized on [Part_bench.config_label] — %g-rendered rates, the
   PR-8 %.0f collision lesson — plus the smoke flag. *)
let part_configs =
  let spec cost cross =
    { Psmr_workload.Workload.Keyed.low_conflict with cost; cross_pct = cross }
  in
  let light = spec Psmr_workload.Workload.Light
  and moderate = spec Psmr_workload.Workload.Moderate in
  [
    (1, 32, light 2.0); (2, 32, light 2.0); (4, 32, light 2.0);
    (4, 32, light 5.0); (1, 32, light 100.0); (4, 32, light 100.0);
    (1, 8, moderate 2.0); (4, 8, moderate 2.0); (1, 32, moderate 2.0);
    (4, 32, moderate 2.0);
  ]

let part_key ~smoke (p, w, spec) =
  Printf.sprintf "%s/%b"
    (Psmr_harness.Part_bench.config_label ~partitions:p
       ~replicas:(Psmr_harness.Part_bench.default_replicas ~partitions:p)
       ~workers:w ~batch:16 spec)
    smoke

let compute_part ~smoke (p, w, spec) =
  let duration, warmup = if smoke then (0.02, 0.005) else (0.08, 0.02) in
  Psmr_harness.Part_bench.run ~partitions:p ~workers:w ~spec ~duration ~warmup
    ()

let part_memo : (string, Psmr_harness.Part_bench.result) Hashtbl.t =
  Hashtbl.create 16

let prefill_part ~smoke ~jobs =
  let todo =
    List.filter
      (fun c -> not (Hashtbl.mem part_memo (part_key ~smoke c)))
      part_configs
    |> List.sort_uniq compare
  in
  let results =
    Psmr_sim.Grid_runner.map ~jobs (compute_part ~smoke) (Array.of_list todo)
  in
  List.iteri
    (fun i c -> Hashtbl.replace part_memo (part_key ~smoke c) results.(i))
    todo

let sim_part ~smoke () =
  List.map
    (fun ((p, w, spec) as c) ->
      let r =
        match Hashtbl.find_opt part_memo (part_key ~smoke c) with
        | Some r -> r
        | None ->
            let r = compute_part ~smoke c in
            Hashtbl.add part_memo (part_key ~smoke c) r;
            r
      in
      (p, Psmr_harness.Part_bench.default_replicas ~partitions:p, w, spec, r))
    part_configs

(* Open-loop latency-under-load grid (docs/WORKLOADS.md): the Zipfian
   YCSB-A scenario driven through [Load_bench]'s bounded offered queue
   into each scheduler family at 32 workers, sweeping offered load to
   locate the saturation knee.  The rate grid is dense around each
   family's measured capacity (coarse saturates near 85 kops; the
   keyed/early/partitioned families near 1.0-1.2 Mops/s) so the knee
   lands on an interior step rather than the sweep edge.  Rows are
   memoized on target label + smoke flag and fanned out over domains
   like the other grids. *)
let open_loop_targets =
  [ "coarse"; "indexed"; "early"; "early_opt"; "part4" ]

let open_loop_workers = 32

let open_loop_rates ~smoke =
  if smoke then [ 50_000.0; 200_000.0; 2_000_000.0 ]
  else
    [
      25_000.0; 50_000.0; 100_000.0; 200_000.0; 400_000.0; 800_000.0;
      1_000_000.0; 1_100_000.0; 1_200_000.0; 1_600_000.0;
    ]

let compute_open_loop ~smoke name =
  let duration, warmup = if smoke then (0.02, 0.005) else (0.08, 0.02) in
  (* JSON row names use underscores; the target parser wants the
     registry spelling. *)
  let spelled =
    String.map (function '_' -> '-' | c -> c) name
  in
  let target =
    match Psmr_harness.Load_bench.target_of_string spelled with
    | Some t -> t
    | None -> invalid_arg ("open_loop: unknown target " ^ name)
  in
  Psmr_harness.Load_bench.sweep ~target ~workers:open_loop_workers
    ~scenario:(Psmr_traffic.Scenario.spec Psmr_traffic.Scenario.A)
    ~rates:(open_loop_rates ~smoke) ~duration ~warmup ()

let open_memo : (string, Psmr_harness.Load_bench.sweep) Hashtbl.t =
  Hashtbl.create 8

let open_key ~smoke name = Printf.sprintf "%s/%b" name smoke

let prefill_open ~smoke ~jobs =
  let todo =
    List.filter
      (fun n -> not (Hashtbl.mem open_memo (open_key ~smoke n)))
      open_loop_targets
  in
  let results =
    Psmr_sim.Grid_runner.map ~jobs (compute_open_loop ~smoke)
      (Array.of_list todo)
  in
  List.iteri
    (fun i n -> Hashtbl.replace open_memo (open_key ~smoke n) results.(i))
    todo

let sim_open_loop ~smoke () =
  List.map
    (fun name ->
      let sw =
        match Hashtbl.find_opt open_memo (open_key ~smoke name) with
        | Some sw -> sw
        | None ->
            let sw = compute_open_loop ~smoke name in
            Hashtbl.add open_memo (open_key ~smoke name) sw;
            sw
      in
      (name, sw))
    open_loop_targets

let print_open_loop rows =
  List.iter
    (fun (name, (sw : Psmr_harness.Load_bench.sweep)) ->
      Printf.printf "# open-loop %s workers=%d %s\n" name sw.workers
        (Format.asprintf "%a" Psmr_traffic.Scenario.pp_spec sw.scenario);
      List.iter
        (fun (s : Psmr_harness.Load_bench.step) ->
          Printf.printf
            "  offered %8.1f kops -> %8.1f kops  drop %5.2f%%  p50 %.6f  \
             p99 %.6f  p999 %.6f\n"
            s.offered_kops s.kops
            (100.0 *. s.drop_rate)
            s.p50 s.p99 s.p999)
        sw.steps;
      (match sw.knee_kops with
      | Some k -> Printf.printf "  knee: %.1f kops offered\n" k
      | None -> print_string "  knee: not reached\n");
      print_newline ())
    rows

(* Throughput-under-faults rows: coarse vs lock-free at 32 workers, with
   one mid-window worker crash that recovers, against the fault-free
   baseline.  Quantifies graceful degradation (docs/FAULTS.md): the
   orphaned command is requeued, a replacement worker joins after the
   respawn delay, and throughput dips rather than collapsing. *)
let sim_faults ~smoke () =
  let duration, warmup = if smoke then (0.02, 0.005) else (0.08, 0.02) in
  let spec =
    {
      Psmr_workload.Workload.write_pct = 10.0;
      cost = Psmr_workload.Workload.Moderate;
    }
  in
  let crash_spec =
    Printf.sprintf "seed=11,worker-crash=1@%g+%g" (warmup +. (duration /. 4.0))
      (duration /. 4.0)
  in
  let faults = Psmr_fault.Schedule.parse_exn crash_spec in
  List.map
    (fun (label, impl) ->
      let base =
        Psmr_harness.Standalone.run ~impl ~workers:32 ~spec ~duration ~warmup ()
      in
      let faulty =
        Psmr_harness.Standalone.run ~impl ~workers:32 ~spec ~duration ~warmup
          ~faults ()
      in
      ( label,
        crash_spec,
        base.Psmr_harness.Standalone.kops,
        faulty.Psmr_harness.Standalone.kops,
        faulty.Psmr_harness.Standalone.faults_injected ))
    [
      ("coarse_w32", Psmr_cos.Registry.Coarse);
      ("lockfree_w32", Psmr_cos.Registry.Lockfree);
    ]

(* Observability block for the JSON summary: the coarse vs lock-free
   counter/latency breakdown at 32 workers that explains the Figure-2
   plateau (see docs/OBSERVABILITY.md).  Each entry is a complete JSON
   object as emitted by [Psmr_obs.Metrics.to_json], embedded verbatim. *)
let sim_metrics ~smoke () =
  let duration, warmup = if smoke then (0.02, 0.005) else (0.08, 0.02) in
  let spec =
    {
      Psmr_workload.Workload.write_pct = 10.0;
      cost = Psmr_workload.Workload.Moderate;
    }
  in
  List.map
    (fun (label, impl) ->
      let r =
        Psmr_harness.Standalone.run ~impl ~workers:32 ~spec ~duration ~warmup
          ~metrics:true ()
      in
      let m =
        match r.Psmr_harness.Standalone.metrics with
        | Some m -> m
        | None -> assert false
      in
      ( label,
        Psmr_obs.Metrics.to_json
          ~cost_model:(Psmr_sim.Costs.to_assoc Psmr_harness.Model.sim_costs)
          m ))
    [
      ("coarse_w32", Psmr_cos.Registry.Coarse);
      ("lockfree_w32", Psmr_cos.Registry.Lockfree);
    ]

(* Hand-rolled JSON (no JSON library in the build environment). *)
let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_json ~micro ~fig2 ~keyed ~part ~open_loop ~faults ~metrics
    ~engine =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"metrics\": {\n";
  List.iteri
    (fun i (name, block) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": %s%s\n" (json_escape name)
           (String.trim block)
           (if i = List.length metrics - 1 then "" else ",")))
    metrics;
  Buffer.add_string buf "  },\n  \"micro_ns_per_op\": [\n";
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "    { \"name\": \"%s\", \"ns\": %.2f }%s\n"
           (json_escape name) ns
           (if i = List.length micro - 1 then "" else ",")))
    micro;
  Buffer.add_string buf "  ],\n  \"faults_sim_kops\": [\n";
  List.iteri
    (fun i (name, spec, base, faulty, injected) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": \"%s\", \"faults\": \"%s\", \"kops_fault_free\": \
            %.1f, \"kops_faulty\": %.1f, \"injected\": %d }%s\n"
           (json_escape name) (json_escape spec) base faulty injected
           (if i = List.length faults - 1 then "" else ",")))
    faults;
  Buffer.add_string buf "  ],\n  \"fig2_sim_kops\": [\n";
  List.iteri
    (fun i (w, impl, kops) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"workers\": %d, \"impl\": \"%s\", \"kops\": %.1f }%s\n" w
           (json_escape impl) kops
           (if i = List.length fig2 - 1 then "" else ",")))
    fig2;
  Buffer.add_string buf "  ],\n  \"keyed_sim_kops\": [\n";
  List.iteri
    (fun i (name, mis, r) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": \"%s\", \"workers\": 32, \"mis_pct\": %.1f, \
            \"kops\": %.1f, \"direct\": %d, \"rendezvous\": %d, \"repairs\": \
            %d, \"revoked\": %d, \"spec_execs\": %d, \"rollbacks\": %d, \
            \"redos\": %d }%s\n"
           (json_escape name) mis r.s_kops r.s_direct r.s_rendezvous
           r.s_repairs r.s_revoked r.s_spec_execs r.s_rollbacks r.s_redos
           (if i = List.length keyed - 1 then "" else ",")))
    keyed;
  Buffer.add_string buf "  ],\n  \"part_sim_kops\": [\n";
  List.iteri
    (fun i
         ( partitions,
           replicas,
           workers,
           (spec : Psmr_workload.Workload.Keyed.spec),
           (r : Psmr_harness.Part_bench.result) ) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"partitions\": %d, \"replicas\": %d, \"workers\": %d, \
            \"cost\": \"%s\", \"cross_pct\": %g, \"kops\": %.1f, \"singles\": \
            %d, \"crosses\": %d, \"holes\": %d, \"merge_pending\": %d, \
            \"views\": %d }%s\n"
           partitions replicas workers
           (json_escape (Psmr_workload.Workload.cost_label spec.cost))
           spec.cross_pct r.kops r.singles r.crosses r.holes r.merge_pending
           r.views
           (if i = List.length part - 1 then "" else ",")))
    part;
  Buffer.add_string buf "  ],\n  \"open_loop\": [\n";
  List.iteri
    (fun i (name, (sw : Psmr_harness.Load_bench.sweep)) ->
      let steps =
        String.concat ","
          (List.map
             (fun (s : Psmr_harness.Load_bench.step) ->
               Printf.sprintf
                 "\n      { \"offered_kops\": %.9g, \"kops\": %.1f, \
                  \"drop_rate\": %.9g, \"p50\": %.9g, \"p99\": %.9g, \
                  \"p999\": %.9g }"
                 s.offered_kops s.kops s.drop_rate s.p50 s.p99 s.p999)
             sw.steps)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"impl\": \"%s\", \"workers\": %d, \"scenario\": \"%s\", \
            \"records\": %d, \"theta\": %g, \"knee_kops\": %s, \"steps\": \
            [%s\n    ] }%s\n"
           (json_escape name) sw.workers
           (Psmr_traffic.Scenario.label sw.scenario.scenario)
           sw.scenario.records sw.scenario.theta
           (match sw.knee_kops with
           | Some k -> Printf.sprintf "%.9g" k
           | None -> "null")
           steps
           (if i = List.length open_loop - 1 then "" else ",")))
    open_loop;
  Buffer.add_string buf "  ],\n  \"sim_events_per_wall_second\": [\n";
  List.iteri
    (fun i (r : Engine_churn.row) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": \"%s\", \"events\": %d, \"wall_seconds\": %.6f, \
            \"events_per_second\": %.0f }%s\n"
           (json_escape r.name) r.events r.wall_seconds
           (Engine_churn.events_per_second r)
           (if i = List.length engine - 1 then "" else ",")))
    engine;
  Buffer.add_string buf "  ]";
  let fig2_find impl =
    List.find_map
      (fun (w, i, k) -> if w = 32 && String.equal i impl then Some k else None)
      fig2
  in
  let keyed_find name =
    List.find_map
      (fun (n, _, r) -> if String.equal n name then Some r.s_kops else None)
      keyed
  in
  (match (fig2_find "lockfree", fig2_find "indexed_batch16") with
  | Some base, Some ix when base > 0.0 ->
      Buffer.add_string buf
        (Printf.sprintf
           ",\n  \"speedup_w32_indexed_batch16_vs_lockfree\": %.2f" (ix /. base))
  | _ -> ());
  (match (keyed_find "indexed", keyed_find "early") with
  | Some base, Some early when base > 0.0 ->
      Buffer.add_string buf
        (Printf.sprintf ",\n  \"speedup_w32_early_vs_indexed\": %.2f"
           (early /. base))
  | _ -> ());
  (* The partitioning headline: 4 sequencers vs 1 at w32 on the
     ordering-bound (Light, 2%-cross) workload. *)
  let part_find ~partitions ~workers =
    List.find_map
      (fun (p, _, w, (spec : Psmr_workload.Workload.Keyed.spec), r) ->
        if
          p = partitions && w = workers
          && spec.cost = Psmr_workload.Workload.Light
          && spec.cross_pct = 2.0
        then Some r.Psmr_harness.Part_bench.kops
        else None)
      part
  in
  (match (part_find ~partitions:1 ~workers:32, part_find ~partitions:4 ~workers:32) with
  | Some base, Some p4 when base > 0.0 ->
      Buffer.add_string buf
        (Printf.sprintf ",\n  \"speedup_w32_part4_vs_part1\": %.2f" (p4 /. base))
  | _ -> ());
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(* Re-read the summary and check its shape, so a malformed emitter fails
   the run (and the @bench-smoke alias) rather than producing a file
   downstream tooling chokes on. *)
let validate_json ~path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let module J = Psmr_util.Json in
  let fail fmt = Printf.ksprintf (fun m -> failwith (path ^ ": " ^ m)) fmt in
  match J.parse s with
  | Error msg -> fail "invalid JSON: %s" msg
  | Ok j ->
      let req name v =
        match J.member name v with
        | Some x -> x
        | None -> fail "missing member %S" name
      in
      let req_num name v =
        match J.as_num (req name v) with
        | Some _ -> ()
        | None -> fail "member %S is not a number" name
      in
      ignore (req "micro_ns_per_op" j);
      ignore (req "fig2_sim_kops" j);
      (match J.as_arr (req "keyed_sim_kops" j) with
      | Some rows ->
          List.iter
            (fun row ->
              List.iter (fun f -> req_num f row)
                [
                  "workers"; "mis_pct"; "kops"; "direct"; "rendezvous";
                  "repairs"; "revoked"; "spec_execs"; "rollbacks"; "redos";
                ])
            rows
      | None -> fail "member \"keyed_sim_kops\" is not a list");
      (match J.as_arr (req "part_sim_kops" j) with
      | Some (_ :: _ as rows) ->
          List.iter
            (fun row ->
              List.iter (fun f -> req_num f row)
                [
                  "partitions"; "replicas"; "workers"; "cross_pct"; "kops";
                  "singles"; "crosses"; "holes"; "merge_pending"; "views";
                ])
            rows
      | Some [] -> fail "member \"part_sim_kops\" is empty"
      | None -> fail "member \"part_sim_kops\" is not a list");
      req_num "speedup_w32_part4_vs_part1" j;
      (match J.as_arr (req "open_loop" j) with
      | Some (_ :: _ as rows) ->
          List.iter
            (fun row ->
              (match J.as_str (req "impl" row) with
              | Some _ -> ()
              | None -> fail "open_loop member \"impl\" is not a string");
              List.iter (fun f -> req_num f row)
                [ "workers"; "records"; "theta"; "knee_kops" ];
              match J.as_arr (req "steps" row) with
              | Some (_ :: _ as steps) ->
                  List.iter
                    (fun s ->
                      List.iter (fun f -> req_num f s)
                        [
                          "offered_kops"; "kops"; "drop_rate"; "p50"; "p99";
                          "p999";
                        ])
                    steps
              | Some [] -> fail "open_loop row has empty \"steps\""
              | None -> fail "open_loop member \"steps\" is not a list")
            rows
      | Some [] -> fail "member \"open_loop\" is empty"
      | None -> fail "member \"open_loop\" is not a list");
      (match J.as_arr (req "sim_events_per_wall_second" j) with
      | Some (_ :: _ as rows) ->
          List.iter
            (fun row ->
              List.iter (fun f -> req_num f row)
                [ "events"; "wall_seconds"; "events_per_second" ])
            rows
      | Some [] -> fail "member \"sim_events_per_wall_second\" is empty"
      | None -> fail "member \"sim_events_per_wall_second\" is not a list");
      req_num "speedup_w32_early_vs_indexed" j;
      (match J.as_arr (req "faults_sim_kops" j) with
      | Some rows ->
          List.iter
            (fun row ->
              List.iter (fun f -> req_num f row)
                [ "kops_fault_free"; "kops_faulty"; "injected" ])
            rows
      | None -> fail "member \"faults_sim_kops\" is not a list");
      let metrics = req "metrics" j in
      List.iter
        (fun block ->
          let b = req block metrics in
          let counters = req "counters" b in
          List.iter
            (fun c -> req_num c counters)
            [
              "lock_acquisitions"; "lock_wait"; "lock_hold"; "cas_attempts";
              "cas_successes"; "sem_parks"; "sem_wakes"; "insert_ops";
              "get_ops"; "remove_ops";
            ];
          let lat = req "latency_virtual_seconds" b in
          List.iter
            (fun h ->
              let hv = req h lat in
              List.iter (fun f -> req_num f hv) [ "count"; "p50"; "p95"; "p99" ])
            [ "delivery_ready"; "ready_dispatch"; "dispatch_executed" ])
        [ "coarse_w32"; "lockfree_w32" ];
      Printf.printf "schema ok: %s\n%!" path

let getenv_flag v =
  match Sys.getenv_opt v with Some ("1" | "true") -> true | _ -> false

let getenv_int v default =
  match Sys.getenv_opt v with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* The report's simulated sections, built from the memoized grids. *)
let render_sim_json ~smoke ~jobs ~micro ~engine =
  (* Fan the distinct simulated configurations of the fig2 and keyed
     sections out over domains before the (sequential, memo-served)
     section builds below. *)
  prefill_points ~smoke ~jobs (fig2_configs @ keyed_configs);
  prefill_part ~smoke ~jobs;
  prefill_open ~smoke ~jobs;
  render_json ~micro ~fig2:(sim_fig2 ~smoke ())
    ~keyed:(sim_keyed ~smoke ())
    ~part:(sim_part ~smoke ())
    ~open_loop:(sim_open_loop ~smoke ())
    ~faults:(sim_faults ~smoke ())
    ~metrics:(sim_metrics ~smoke ())
    ~engine

(* Members measured in host time: they vary run to run, so the exact
   comparison skips them. *)
let host_time_members = [ "micro_ns_per_op"; "sim_events_per_wall_second" ]

(* Every path at which two JSON values differ, in document order. *)
let rec diffs path (a : Psmr_util.Json.t) (b : Psmr_util.Json.t) =
  let module J = Psmr_util.Json in
  let show = function
    | J.Num x -> Printf.sprintf "%.15g" x
    | J.Str s -> J.quote s
    | J.Null -> "null"
    | J.Bool b -> string_of_bool b
    | J.Arr l -> Printf.sprintf "an array of %d" (List.length l)
    | J.Obj m -> "{" ^ String.concat ", " (List.map fst m) ^ "}"
  in
  match (a, b) with
  | J.Arr xs, J.Arr ys when List.compare_lengths xs ys = 0 ->
      List.combine xs ys
      |> List.mapi (fun i (x, y) -> diffs (Printf.sprintf "%s[%d]" path i) x y)
      |> List.concat
  | J.Obj xs, J.Obj ys when List.map fst xs = List.map fst ys ->
      List.concat_map
        (fun ((k, x), (_, y)) -> diffs (path ^ "." ^ k) x y)
        (List.combine xs ys)
  | _ when a = b -> []
  | _ ->
      [ Printf.sprintf "%s: committed %s, regenerated %s" path (show a) (show b) ]

(* The @bench-diff gate: regenerate the simulated sections and compare
   them structurally with the committed report, member by member.  Exits 1
   after listing every difference. *)
let bench_diff ~path ~jobs =
  let module J = Psmr_util.Json in
  let parse what s =
    match J.parse s with
    | Ok (J.Obj members) -> members
    | Ok _ -> failwith (what ^ ": not a JSON object")
    | Error e -> failwith (what ^ ": " ^ e)
  in
  let ic = open_in_bin path in
  let committed = parse path (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let simulated members =
    List.filter (fun (k, _) -> not (List.mem k host_time_members)) members
  in
  let regenerated =
    simulated
      (parse "regenerated report"
         (render_sim_json ~smoke:false ~jobs ~micro:[] ~engine:[]))
  in
  let committed = simulated committed in
  match diffs "" (J.Obj committed) (J.Obj regenerated) with
  | [] ->
      Printf.printf "bench-diff: %d simulated members of %s identical\n%!"
        (List.length committed) path
  | ds ->
      List.iter (Printf.printf "bench-diff: %s: %s\n" path) ds;
      Printf.printf "bench-diff: %d differences\n%!" (List.length ds);
      exit 1

let full_run ~smoke =
  let jobs = getenv_int "PSMR_BENCH_JOBS" 1 in
  (* Engine rows first, on the pristine process: the Bechamel section
     leaves a populated major heap behind, and measured on a 10M-event
     churn that costs the engine rows ~12% even after a compaction. *)
  let engine_rows = Engine_churn.rows ~smoke () in
  let micro = run_micro ~smoke () in
  let micro_for_json =
    List.filter
      (fun (name, _) ->
        let has sub =
          let n = String.length sub in
          let rec scan i =
            i + n <= String.length name
            && (String.equal (String.sub name i n) sub || scan (i + 1))
          in
          scan 0
        in
        has "cos-cycle" || has "hashtbl")
      micro
  in
  let json_path =
    Option.value (Sys.getenv_opt "PSMR_BENCH_JSON") ~default:"BENCH_cos.json"
  in
  let oc = open_out json_path in
  output_string oc
    (render_sim_json ~smoke ~jobs ~micro:micro_for_json ~engine:engine_rows);
  close_out oc;
  Printf.printf "wrote %s\n%!" json_path;
  validate_json ~path:json_path;
  if (not smoke) && not (getenv_flag "PSMR_BENCH_SKIP_FIGURES") then begin
    let opts =
      if getenv_flag "PSMR_BENCH_FAST" then Psmr_harness.Figures.fast_options
      else Psmr_harness.Figures.default_options
    in
    let opts =
      { opts with progress = not (getenv_flag "PSMR_BENCH_QUIET"); jobs }
    in
    print_string (Psmr_harness.Figures.run_all ~opts ())
  end

let () =
  let smoke = getenv_flag "PSMR_BENCH_SMOKE" in
  if getenv_flag "PSMR_BENCH_ENGINE_ONLY" then
    (* Engine-core numbers only (the @bench-engine alias): no Bechamel
       quotas, no simulation grids, no figures — just how fast the DES
       itself turns events over. *)
    List.iter
      (fun r -> Format.printf "%a@." Engine_churn.pp_row r)
      (Engine_churn.rows ~smoke ())
  else if getenv_flag "PSMR_BENCH_OPEN_ONLY" then begin
    (* Open-loop sweeps only (the @bench-open alias): the lib/traffic
       latency-under-load grid, printed as tables, no JSON. *)
    let jobs = getenv_int "PSMR_BENCH_JOBS" 1 in
    prefill_open ~smoke ~jobs;
    print_open_loop (sim_open_loop ~smoke ())
  end
  else if getenv_flag "PSMR_BENCH_DIFF_ONLY" then
    (* The @bench-diff alias: full-size simulated sections only, compared
       with the committed report at PSMR_BENCH_JSON; exits 1 listing every
       difference. *)
    bench_diff
      ~path:
        (Option.value (Sys.getenv_opt "PSMR_BENCH_JSON")
           ~default:"BENCH_cos.json")
      ~jobs:(getenv_int "PSMR_BENCH_JOBS" 1)
  else full_run ~smoke
