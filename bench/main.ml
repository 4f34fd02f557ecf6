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
   family), the partitioned and open-loop grids, faults and metrics.  The
   report is built as one [Psmr_util.Json.t] value and checked by
   [Psmr_harness.Bench_schema] before it is written.

   The figures of the paper's evaluation (Figures 2-6) and the ablations
   are not printed here: `psmr_bench all` regenerates them.  Set
   PSMR_BENCH_SMOKE=1 for a time-boxed everything (short quotas, short
   simulation windows) — the @bench-smoke alias.  PSMR_BENCH_DIFF_ONLY=1
   regenerates only the simulated sections and compares them with the
   report at PSMR_BENCH_JSON — the @bench-diff alias.
   PSMR_BENCH_REBASELINE=<file> regenerates them too and writes the report
   at PSMR_BENCH_JSON to <file> with every moved value rewritten in place
   — the @bench-rebaseline alias. *)

open Bechamel
open Toolkit

module RP = Psmr_platform.Real_platform

(* Readers/writers commands ([true] writes) on one shared key: the
   cheapest command the COS can be instantiated with, so the cycle below
   measures the structure and not the command. *)
module Rw = struct
  type t = bool

  let conflict a b = a || b
  let footprint w = [ (0, w) ]
  let pp ppf w = Format.pp_print_string ppf (if w then "w" else "r")
end

(* One insert+get+remove cycle on a COS pre-filled to a given population:
   the steady-state per-command cost of the structure itself. *)
let cos_cycle impl ~population ~writes =
  let (module S : Psmr_cos.Cos_intf.S with type cmd = bool) =
    Psmr_early.Registry.instantiate_cos impl (module RP) (module Rw)
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

let bench_impls = Psmr_early.Registry.paper @ [ Psmr_early.Registry.Indexed ]

let cos_tests =
  Test.make_grouped ~name:"cos-cycle"
    (List.concat_map
       (fun impl ->
         List.map
           (fun pop ->
             Test.make
               ~name:
                 (Printf.sprintf "%s/pop%d"
                    (Psmr_early.Registry.to_string (Cos impl))
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
  let hist = Psmr_util.Histogram.create () in
  Test.make_grouped ~name:"util"
    [
      Test.make ~name:"rng-int"
        (Staged.stage (fun () -> ignore (Psmr_util.Rng.int rng 1000 : int)));
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

module J = Psmr_util.Json
module Keyed = Psmr_workload.Workload.Keyed

(* Measurement window and warmup of every simulated point, in seconds. *)
let window ~smoke = if smoke then (0.02, 0.005) else (0.08, 0.02)

(* One standalone point: a registry backend by name, fed a workload; the
   result carries the dispatcher's class statistics. *)
let standalone_point ~smoke (impl, workers, batch, workload) =
  let duration, warmup = window ~smoke in
  let backend =
    match Psmr_early.Registry.of_string impl with
    | Some b -> b
    | None -> invalid_arg ("standalone_point: unknown backend " ^ impl)
  in
  Psmr_harness.Standalone.run ~backend ~workers ~workload ~batch ~duration
    ~warmup ()

(* Simulated Fig. 2 points for the report: standalone throughput at light
   cost, 0% writes, for the scan-based baseline, the indexed insert with
   and without delivery batching (the paper's list workload), and the
   early dispatcher (keyed low-conflict workload at 0% writes — footprints
   are needed for the class map, the cost profile matches). *)
let fig2_paper =
  Psmr_harness.Standalone.Paper
    { Psmr_workload.Workload.write_pct = 0.0; cost = Psmr_workload.Workload.Light }

(* (label, config) per row. *)
let fig2_rows =
  let keyed0 =
    Psmr_harness.Standalone.Keyed { Keyed.low_conflict with write_pct = 0.0 }
  in
  List.concat_map
    (fun w ->
      [
        ("lockfree", ("lockfree", w, 1, fig2_paper));
        ("indexed", ("indexed", w, 1, fig2_paper));
        ("indexed_batch16", ("indexed", w, 16, fig2_paper));
        ("early", ("early", w, 1, keyed0));
        ("early_opt", ("early-opt", w, 1, keyed0));
      ])
    [ 16; 32; 64 ]

(* The acceptance comparison (docs/SCHEDULING.md): the keyed low-conflict
   workload at 32 workers — early scheduling, conservative and optimistic
   under a mis-speculation sweep, against the COS family fed the identical
   command stream.  Rows carry the dispatcher's class statistics so the
   fast-path share is visible next to the throughput. *)
let keyed_rows =
  let pt ?(mis = 0.0) ?(batch = 1) name impl =
    (name, (impl, 32, batch, { Keyed.low_conflict with mis_pct = mis }))
  in
  [
    pt "early" "early"; pt "early_opt_mis0" "early-opt";
    pt ~mis:0.1 "early_opt_mis0_1" "early-opt";
    pt ~mis:1.0 "early_opt_mis1" "early-opt";
    pt ~mis:5.0 "early_opt_mis5" "early-opt";
    pt ~mis:10.0 "early_opt_mis10" "early-opt"; pt "indexed" "indexed";
    pt ~batch:16 "indexed_batch16" "indexed"; pt "lockfree" "lockfree";
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
   drops but nothing wedges (no holes pile up, no view changes). *)
let part_spec cost cross = { Keyed.low_conflict with cost; cross_pct = cross }
let part_light = part_spec Psmr_workload.Workload.Light

let part_configs =
  let moderate = part_spec Psmr_workload.Workload.Moderate in
  [
    (1, 32, part_light 2.0); (2, 32, part_light 2.0); (4, 32, part_light 2.0);
    (4, 32, part_light 5.0); (1, 32, part_light 100.0);
    (4, 32, part_light 100.0); (1, 8, moderate 2.0); (4, 8, moderate 2.0);
    (1, 32, moderate 2.0); (4, 32, moderate 2.0);
  ]

let compute_part ~smoke (p, w, spec) =
  let duration, warmup = window ~smoke in
  Psmr_harness.Part_bench.run ~partitions:p ~workers:w ~spec ~duration ~warmup
    ()

(* Open-loop latency-under-load grid (docs/WORKLOADS.md): the Zipfian
   YCSB-A scenario offered to the replicated deployment on
   [Psmr_harness.Open_loop]'s default ladder, one row per target.  Three
   single sequencers differ only in their backend; part4 is the
   benchmark's own partitioned deployment.  The ladders of indexed,
   early and part4 go on to 800 and 1000 kops, past the single
   sequencer's own bound (one [Marshal] per command, about 833 kops),
   where partitioned ordering pulls ahead.  A last part4 row offers the
   scan-heavy YCSB-E scenario on a ladder around its knee, where the
   shared-read rendezvous does the work. *)
module W = Psmr_benchmark.Workloads
module Report = Psmr_benchmark.Report

let open_loop_targets =
  List.map
    (fun (s, scenario, levels_kops) ->
      (Option.get (Psmr_harness.Open_loop.target_of_string s), scenario,
       levels_kops))
    (let extended = Some (Psmr_harness.Open_loop.levels_kops @ [ 800.; 1000. ]) in
     Psmr_traffic.Scenario.
       [
         ("coarse", A, None); ("indexed", A, extended); ("early", A, extended);
         ("part4", A, extended);
         ("part4", E, Some [ 10.; 15.; 20.; 30.; 40.; 50. ]);
       ])

(* One target's ladder, and each step's window with its offered ops/s. *)
let compute_open_loop ~smoke (deployment, scenario, levels_kops) =
  let w = Psmr_harness.Open_loop.ladder ?levels_kops deployment scenario in
  let w = if smoke then W.scale 0.1 w else w in
  (w, Psmr_harness.Open_loop.run w)

(* The faults and metrics sections run coarse and lock-free at 32 workers
   on the moderate 10%-write workload, sequentially: they install global
   state (the fault plan, the metrics registry) that a parallel grid must
   not see. *)
let w32_impls =
  [ ("coarse_w32", Psmr_early.Registry.Coarse);
    ("lockfree_w32", Psmr_early.Registry.Lockfree) ]

let standalone_w32 ~smoke ?faults ?metrics impl =
  let duration, warmup = window ~smoke in
  Psmr_harness.Standalone.run ~backend:(Cos impl) ~workers:32
    ~workload:(Paper { Psmr_workload.Workload.write_pct = 10.0; cost = Moderate })
    ~duration ~warmup ?faults ?metrics ()

(* Throughput-under-faults rows: one mid-window worker crash that
   recovers, against the fault-free baseline.  Quantifies graceful
   degradation (docs/FAULTS.md): the orphaned command is requeued, a
   replacement worker joins after the respawn delay, and throughput dips
   rather than collapsing. *)
let sim_faults ~smoke =
  let duration, warmup = window ~smoke in
  let crash_spec =
    Printf.sprintf "seed=11,worker-crash=1@%g+%g" (warmup +. (duration /. 4.0))
      (duration /. 4.0)
  in
  let faults = Psmr_fault.Schedule.parse_exn crash_spec in
  List.map
    (fun (label, impl) ->
      let base = standalone_w32 ~smoke impl in
      let faulty = standalone_w32 ~smoke ~faults impl in
      J.Obj
        [
          ("name", J.Str label); ("faults", J.Str crash_spec);
          ("kops_fault_free", J.fixed 1 base.kops);
          ("kops_faulty", J.fixed 1 faulty.kops);
          ("injected", J.int faulty.faults_injected);
        ])
    w32_impls

(* Observability block for the report: the coarse vs lock-free
   counter/latency breakdown that explains the Figure-2 plateau (see
   docs/OBSERVABILITY.md), one [Psmr_obs.Metrics.to_json] value per
   impl. *)
let sim_metrics ~smoke =
  List.map
    (fun (label, impl) ->
      let r = standalone_w32 ~smoke ~metrics:true impl in
      ( label,
        Psmr_obs.Metrics.to_json
          ~cost_model:(Psmr_sim.Costs.to_assoc Psmr_harness.Model.sim_costs)
          (Option.get r.metrics) ))
    w32_impls

let keyed_json (name, (_, workers, _, (spec : Keyed.spec)))
    (r : Psmr_harness.Standalone.result) =
  J.Obj
    [
      ("name", J.Str name); ("workers", J.int workers);
      ("mis_pct", J.fixed 1 spec.mis_pct); ("kops", J.fixed 1 r.kops);
      ("direct", J.int r.direct); ("rendezvous", J.int r.rendezvous);
      ("repairs", J.int r.repairs); ("revoked", J.int r.revoked);
      ("spec_execs", J.int r.spec_execs); ("rollbacks", J.int r.rollbacks);
      ("redos", J.int r.redos);
    ]

let part_json (p, w, (spec : Keyed.spec)) (r : Psmr_harness.Part_bench.result)
    =
  J.Obj
    [
      ("partitions", J.int p);
      ("replicas", J.int (Psmr_harness.Part_bench.default_replicas ~partitions:p));
      ("workers", J.int w);
      ("cost", J.Str (Psmr_workload.Workload.cost_label spec.cost));
      ("cross_pct", J.digits 6 spec.cross_pct); ("kops", J.fixed 1 r.kops);
      ("singles", J.int r.singles); ("crosses", J.int r.crosses);
      ("holes", J.int r.holes); ("merge_pending", J.int r.merge_pending);
      ("views", J.int r.views);
    ]

let open_loop_json ((w : W.t), steps) =
  let d = w.deployment in
  let quantile key (w : Report.window) q =
    match Report.quantile w q with
    | Some (v, lower_bound) ->
        [ (key, J.digits 9 v); (key ^ "_lower_bound", J.Bool lower_bound) ]
    | None -> [ (key, J.Null) ]
  in
  let step (level, (w : Report.window)) =
    J.Obj
      ([
         ("offered_kops", J.digits 9 (level /. 1e3));
         ("arrivals", J.int w.arrivals); ("kops", J.fixed 1 w.kops);
         ("failed", J.int w.failed); ("censored", J.int w.censored);
         ("samples", J.int (Array.length w.lat));
       ]
      @ quantile "p50" w 0.5 @ quantile "p99" w 0.99)
  in
  J.Obj
    [
      ("impl", J.Str w.name); ("backend", J.Str d.backend);
      ("replicas", J.int d.replicas);
      ( "partitions",
        J.int (match d.ordering with Single -> 1 | Parts p -> p) );
      ("workers", J.int Psmr_benchmark.Pinned.workers);
      ("scenario", J.Str (Psmr_traffic.Scenario.label w.scenario));
      ("records", J.int Psmr_benchmark.Pinned.records);
      ("theta", J.digits 6 Psmr_benchmark.Pinned.theta);
      ("max_kops_slo", J.digits 9 (Report.max_rate_slo steps /. 1e3));
      ("steps", J.Arr (List.map step steps));
    ]

let open_loop_rows ~smoke ~jobs =
  let open_loop =
    Psmr_sim.Grid_runner.memo ~jobs (compute_open_loop ~smoke) open_loop_targets
  in
  List.map (fun t -> open_loop_json (open_loop t)) open_loop_targets

let engine_json (r : Engine_churn.row) =
  J.Obj
    [
      ("name", J.Str r.name); ("events", J.int r.events);
      ("wall_seconds", J.fixed 6 r.wall_seconds);
      ("events_per_second", J.fixed 0 (Engine_churn.events_per_second r));
    ]

(* The report's members: the host-time sections ([micro], [engine]) as
   measured by the caller, every simulated one from the grids. *)
let report ~smoke ~jobs ~micro ~engine =
  let fig2 =
    Psmr_sim.Grid_runner.memo ~jobs
      (fun c -> (standalone_point ~smoke c).Psmr_harness.Standalone.kops)
      (List.map snd fig2_rows)
  in
  let keyed =
    Psmr_sim.Grid_runner.memo ~jobs
      (fun (impl, w, batch, spec) ->
        standalone_point ~smoke (impl, w, batch, Keyed spec))
      (List.map snd keyed_rows)
  in
  let part =
    Psmr_sim.Grid_runner.memo ~jobs (compute_part ~smoke) part_configs
  in
  let open_loop = open_loop_rows ~smoke ~jobs in
  let faults = sim_faults ~smoke in
  let metrics = sim_metrics ~smoke in
  let speedup name x base =
    if base > 0.0 then [ (name, J.fixed 2 (x /. base)) ] else []
  in
  let keyed_kops name =
    (keyed (List.assoc name keyed_rows)).Psmr_harness.Standalone.kops
  in
  (* The partitioning headline: 4 sequencers vs 1 at w32 on the
     ordering-bound (Light, 2%-cross) workload. *)
  let part_kops p = (part (p, 32, part_light 2.0)).Psmr_harness.Part_bench.kops in
  [
    ("metrics", J.Obj metrics);
    ( "micro_ns_per_op",
      J.Arr
        (List.map
           (fun (name, ns) -> J.Obj [ ("name", J.Str name); ("ns", J.fixed 2 ns) ])
           micro) );
    ("faults_sim_kops", J.Arr faults);
    ( "fig2_sim_kops",
      J.Arr
        (List.map
           (fun (label, ((_, w, _, _) as c)) ->
             J.Obj
               [
                 ("workers", J.int w); ("impl", J.Str label);
                 ("kops", J.fixed 1 (fig2 c));
               ])
           fig2_rows) );
    ( "keyed_sim_kops",
      J.Arr (List.map (fun row -> keyed_json row (keyed (snd row))) keyed_rows)
    );
    ( "part_sim_kops",
      J.Arr (List.map (fun c -> part_json c (part c)) part_configs) );
    ("open_loop", J.Arr open_loop);
    ("sim_events_per_wall_second", J.Arr (List.map engine_json engine));
  ]
  @ speedup "speedup_w32_indexed_batch16_vs_lockfree"
      (fig2 ("indexed", 32, 16, fig2_paper))
      (fig2 ("lockfree", 32, 1, fig2_paper))
  @ speedup "speedup_w32_early_vs_indexed" (keyed_kops "early")
      (keyed_kops "indexed")
  @ speedup "speedup_w32_part4_vs_part1" (part_kops 4) (part_kops 1)

(* Fail with the schema violation, naming the document it is in. *)
let validate what doc =
  match Psmr_harness.Bench_schema.validate doc with
  | Ok () -> ()
  | Error m -> failwith (what ^ ": " ^ m)

let getenv_flag v =
  match Sys.getenv_opt v with Some ("1" | "true") -> true | _ -> false

let getenv_int v default =
  match Sys.getenv_opt v with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* Members measured in host time: they vary run to run, so the exact
   comparison takes them from the committed report. *)
let host_time_members = [ "micro_ns_per_op"; "sim_events_per_wall_second" ]

(* Every path at which two JSON values differ, in document order. *)
let rec diffs path (a : J.t) (b : J.t) =
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

(* The committed report at [path] and its regeneration: every simulated
   section recomputed at full size, completed with the committed
   host-time members and checked against the schema. *)
let regenerate ~path ~jobs =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let committed =
    match J.parse text with
    | Ok (J.Obj members) -> members
    | Ok _ -> failwith (path ^ ": not a JSON object")
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let regenerated =
    List.map
      (fun (k, v) ->
        match List.assoc_opt k committed with
        | Some c when List.mem k host_time_members -> (k, c)
        | _ -> (k, v))
      (report ~smoke:false ~jobs ~micro:[] ~engine:[])
  in
  validate "regenerated report" (J.Obj regenerated);
  (text, committed, regenerated)

(* The @bench-diff gate: compare the regenerated report structurally with
   the committed one, member by member.  Exits 1 after listing every
   difference. *)
let bench_diff ~path ~jobs =
  let _, committed, regenerated = regenerate ~path ~jobs in
  match diffs "" (J.Obj committed) (J.Obj regenerated) with
  | [] ->
      Printf.printf "bench-diff: %d simulated members of %s identical\n%!"
        (List.length committed - List.length host_time_members)
        path
  | ds ->
      List.iter (Printf.printf "bench-diff: %s: %s\n" path) ds;
      Printf.printf "bench-diff: %d differences\n%!" (List.length ds);
      exit 1

(* [text] (which parses to [committed]) rewritten to [regenerated] in
   place: every value equal in both keeps its committed text byte for
   byte, a scalar that moved is printed anew, and so is a container whose
   keys or length changed, indented like the line it starts on.  Committed
   numbers keep their printed form ("68.0", "4530.10"), which a parse and
   print round trip would not. *)
let splice text committed regenerated =
  let n = String.length text in
  let out = Buffer.create n in
  let emit i j = Buffer.add_substring out text i (j - i) in
  let rec ws i =
    if i < n && String.contains " \n\r\t" text.[i] then ws (i + 1) else i
  in
  (* Index just past the value starting at [i]. *)
  let rec skip i =
    match text.[i] with
    | '"' ->
        let rec str j =
          match text.[j] with
          | '\\' -> str (j + 2)
          | '"' -> j + 1
          | _ -> str (j + 1)
        in
        str (i + 1)
    | '{' | '[' ->
        let rec items j =
          let j = ws j in
          match text.[j] with
          | '}' | ']' -> j + 1
          | ',' | ':' -> items (j + 1)
          | _ -> items (skip j)
        in
        items (i + 1)
    | _ ->
        let rec scalar j =
          if j < n && not (String.contains ",}] \n\r\t" text.[j]) then
            scalar (j + 1)
          else j
        in
        scalar i
  in
  let indent_at i =
    let line =
      match String.rindex_from_opt text i '\n' with Some l -> l + 1 | None -> 0
    in
    String.make (ws line - line) ' '
  in
  (* Emit the value starting at [i]; return the index past it. *)
  let rec walk i c r =
    match (c, r) with
    | J.Obj cs, J.Obj rs when List.map fst cs = List.map fst rs ->
        members ~keyed:true i (List.map snd cs) (List.map snd rs)
    | J.Arr cs, J.Arr rs when List.compare_lengths cs rs = 0 ->
        members ~keyed:false i cs rs
    | _ ->
        let j = skip i in
        if c = r then emit i j
        else
          Buffer.add_string out
            (String.concat ("\n" ^ indent_at i)
               (String.split_on_char '\n' (J.to_string r)));
        j
  and members ~keyed i cs rs =
    emit i (i + 1);
    let rec go i cs rs =
      match (cs, rs) with
      | c :: cs, r :: rs ->
          let start = if keyed then ws (ws (skip (ws i)) + 1) else ws i in
          emit i start;
          let j = walk start c r in
          let k = ws j in
          emit j (k + 1);
          if text.[k] = ',' then go (k + 1) cs rs else k + 1
      | _ ->
          let k = ws i in
          emit i (k + 1);
          k + 1
    in
    go (i + 1) cs rs
  in
  let start = ws 0 in
  emit 0 start;
  let j = walk start committed regenerated in
  emit j n;
  Buffer.contents out

(* The @bench-rebaseline alias: the committed report with the regenerated
   simulated values spliced in, written to [out] (the alias diffs it
   against the committed file, and promotion writes it back).  Host-time
   members keep their committed text. *)
let bench_rebaseline ~path ~out ~jobs =
  let text, committed, regenerated = regenerate ~path ~jobs in
  let committed = J.Obj committed and regenerated = J.Obj regenerated in
  let spliced = splice text committed regenerated in
  (match J.parse spliced with
  | Ok doc when doc = regenerated -> ()
  | Ok _ | Error _ -> failwith "bench-rebaseline: splice does not read back");
  Out_channel.with_open_bin out (fun oc -> output_string oc spliced);
  Printf.printf "bench-rebaseline: %d values of %s moved\n%!"
    (List.length (diffs "" committed regenerated))
    path

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
  let doc =
    J.Obj (report ~smoke ~jobs ~micro:micro_for_json ~engine:engine_rows)
  in
  validate json_path doc;
  Out_channel.with_open_text json_path (fun oc ->
      output_string oc (J.to_string doc ^ "\n"));
  Printf.printf "wrote %s (schema ok)\n%!" json_path

let () =
  let smoke = getenv_flag "PSMR_BENCH_SMOKE" in
  if getenv_flag "PSMR_BENCH_ENGINE_ONLY" then
    (* Engine-core numbers only (the @bench-engine alias): no Bechamel
       quotas, no simulation grids — just how fast the DES itself turns
       events over. *)
    List.iter
      (fun r -> Format.printf "%a@." Engine_churn.pp_row r)
      (Engine_churn.rows ~smoke ())
  else if getenv_flag "PSMR_BENCH_OPEN_ONLY" then begin
    (* Open-loop ladders only (the @bench-open alias): the [open_loop]
       rows, printed as JSON. *)
    print_endline
      (J.to_string
         (J.Arr
            (open_loop_rows ~smoke ~jobs:(getenv_int "PSMR_BENCH_JOBS" 1))))
  end
  else if Option.is_some (Sys.getenv_opt "PSMR_BENCH_REBASELINE") then
    (* The @bench-rebaseline alias. *)
    bench_rebaseline
      ~path:
        (Option.value (Sys.getenv_opt "PSMR_BENCH_JSON")
           ~default:"BENCH_cos.json")
      ~out:(Sys.getenv "PSMR_BENCH_REBASELINE")
      ~jobs:(getenv_int "PSMR_BENCH_JOBS" 1)
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
