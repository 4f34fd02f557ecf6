(* Tests for the observability subsystem (lib/obs): per-implementation
   counter sanity, the zero-perturbation invariant (metrics on/off cannot
   change virtual time or throughput), byte-level determinism of the
   exported metrics and trace documents, and schema acceptance of both the
   metrics JSON block and the Chrome trace-event file. *)

module Engine = Psmr_sim.Engine
module Metrics = Psmr_obs.Metrics
module Trace = Psmr_obs.Trace
module Histogram = Psmr_util.Histogram
module Registry = Psmr_cos.Registry
module Standalone = Psmr_harness.Standalone
module Bench_schema = Psmr_harness.Bench_schema
module J = Psmr_util.Json

let impls =
  [
    (Registry.Coarse, "coarse");
    (Registry.Fine, "fine");
    (Registry.Lockfree, "lockfree");
    (Registry.Striped 8, "striped-8");
    (Registry.Fifo, "fifo");
    (Registry.Indexed, "indexed");
  ]

module Rw_cmd = struct
  type t = { idx : int; write : bool }

  let conflict a b = a.write || b.write
  let footprint c = [ (0, c.write) ]
  let pp ppf c = Format.fprintf ppf "%s%d" (if c.write then "w" else "r") c.idx
end

(* A fully drained scripted run: 200 commands through the scheduler on the
   simulated platform, shutdown joins the workers, so on return every
   submitted command has been inserted, promoted, dispatched, executed and
   removed exactly once.  That closed ledger is what the histogram-count
   assertions below lean on. *)
let commands = 200

let scripted impl ~metrics =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let (module S : Psmr_cos.Cos_intf.S with type cmd = Rw_cmd.t) =
    Registry.instantiate_keyed impl (module SP) (module Rw_cmd)
  in
  let module Sched = Psmr_sched.Scheduler.Make (SP) (S) in
  let registry =
    if metrics then
      Some
        (Metrics.make
           ~now:(fun () -> Engine.now e)
           ~track:(fun () -> Engine.running_tag e)
           ())
    else None
  in
  Engine.spawn e (fun () ->
      let sched = Sched.start ~workers:4 ~execute:(fun _ -> SP.sleep 1e-5) () in
      let rng = Psmr_util.Rng.create ~seed:33L in
      for i = 0 to commands - 1 do
        Sched.submit sched
          { Rw_cmd.idx = i; write = Psmr_util.Rng.below_percent rng 30.0 }
      done;
      Sched.shutdown sched);
  Option.iter Metrics.enable registry;
  Fun.protect
    ~finally:(fun () -> if Option.is_some registry then Metrics.disable ())
    (fun () -> Engine.run e);
  (Engine.now e, registry)

(* --- counter sanity, one case per implementation --- *)

let test_counter_sanity impl () =
  let _, registry = scripted impl ~metrics:true in
  let m = Option.get registry in
  let v = Metrics.value m in
  Alcotest.(check bool)
    "CAS successes <= attempts" true
    (v "platform.cas_successes" <= v "platform.cas_attempts");
  Alcotest.(check bool)
    "semaphore wakes <= parks + close tokens" true
    (v "sync.sem_wakes" <= v "sync.sem_parks" +. v "cos.close_tokens");
  Alcotest.(check bool)
    "lock wait and hold are non-negative" true
    (v "sync.lock_wait" >= 0.0 && v "sync.lock_hold" >= 0.0);
  let commands = float_of_int commands in
  Alcotest.(check (float 0.0)) "every command inserted" commands
    (v "cos.insert_ops");
  Alcotest.(check (float 0.0)) "every command removed" commands
    (v "cos.remove_ops");
  Alcotest.(check bool)
    "at least one get per command" true
    (v "cos.get_ops" >= commands);
  List.iter
    (fun h ->
      Alcotest.(check (float 0.0))
        (h ^ " latency per command") commands
        (List.assoc (h ^ "_count") (Metrics.assoc m)))
    (Bench_schema.required_metrics `Histogram)

(* --- the zero-perturbation invariant, per implementation ---

   Probes are plain OCaml mutation, never engine effects, so an enabled
   registry must not move a single event: the virtual end time of the
   scripted run is bit-identical with metrics on and off. *)

let test_zero_perturbation impl () =
  let t_off, _ = scripted impl ~metrics:false in
  let t_on, _ = scripted impl ~metrics:true in
  Alcotest.(check (float 0.0)) "bit-identical virtual end time" t_off t_on

(* --- the standalone harness: determinism and unchanged throughput --- *)

let spec = { Psmr_workload.Workload.write_pct = 10.0; cost = Moderate }

let standalone ~metrics ~trace () =
  Standalone.run ~backend:(Cos Registry.Lockfree) ~workers:8
    ~workload:(Paper spec) ~duration:0.02
    ~warmup:0.005 ~metrics ~trace ()

let test_deterministic_exports () =
  let a = standalone ~metrics:true ~trace:true () in
  let b = standalone ~metrics:true ~trace:true () in
  Alcotest.(check (float 0.0)) "same throughput" a.Standalone.kops b.kops;
  Alcotest.(check int) "same executed count" a.Standalone.executed b.executed;
  Alcotest.(check string)
    "byte-identical metrics documents"
    (J.to_string (Metrics.to_json (Option.get a.Standalone.metrics)))
    (J.to_string (Metrics.to_json (Option.get b.Standalone.metrics)));
  Alcotest.(check string)
    "byte-identical trace documents"
    (Trace.to_json (Option.get a.Standalone.trace))
    (Trace.to_json (Option.get b.Standalone.trace))

(* The same run also exports only the layers it touched: a lock-free
   standalone run has no class map, no partitions and no faults. *)
let test_throughput_unaffected () =
  let off = standalone ~metrics:false ~trace:false () in
  let on = standalone ~metrics:true ~trace:true () in
  Alcotest.(check (float 0.0))
    "identical throughput with observability on" off.Standalone.kops on.kops;
  Alcotest.(check int)
    "identical executed count" off.Standalone.executed on.executed;
  List.iter
    (fun (name, _) ->
      List.iter
        (fun layer ->
          if String.starts_with ~prefix:layer name then
            Alcotest.failf "untouched layer exported: %s" name)
        [ "fault."; "part."; "early." ])
    (Metrics.assoc (Option.get on.Standalone.metrics))

(* --- exported document schemas --- *)

let num_member name j =
  match Option.bind (J.member name j) J.as_num with
  | Some v -> v
  | None -> Alcotest.failf "missing numeric member %S" name

let test_metrics_schema () =
  let r = standalone ~metrics:true ~trace:false () in
  let doc = J.to_string (Metrics.to_json (Option.get r.Standalone.metrics)) in
  match J.parse doc with
  | Error msg -> Alcotest.failf "metrics JSON does not parse: %s" msg
  | Ok j ->
      (match Bench_schema.validate_metrics j with
      | Ok () -> ()
      | Error m -> Alcotest.failf "metrics JSON block: %s" m);
      let counters = Option.get (J.member "counters" j) in
      Alcotest.(check bool)
        "CAS successes <= attempts in the document" true
        (num_member "platform.cas_successes" counters
        <= num_member "platform.cas_attempts" counters);
      let latencies = Option.get (J.member "latency_virtual_seconds" j) in
      List.iter
        (fun hist ->
          let h = Option.get (J.member hist latencies) in
          Alcotest.(check bool)
            (hist ^ " count positive") true
            (num_member "count" h > 0.0);
          Alcotest.(check bool)
            (hist ^ " tail quantile ordered") true
            (num_member "p99" h <= num_member "p999" h))
        (Bench_schema.required_metrics `Histogram)

(* The flat snapshot ledger: every histogram contributes its full
   quantile family — the tail quantile included — and the members obey
   the same ordering as the JSON block.  A drained scripted run closes
   the ledger, so the counts are exact. *)
let test_assoc_p999_ledger () =
  let _, registry = scripted Registry.Indexed ~metrics:true in
  let kv = Metrics.assoc (Option.get registry) in
  let get name =
    match List.assoc_opt name kv with
    | Some v -> v
    | None -> Alcotest.failf "missing assoc member %S" name
  in
  List.iter
    (fun hist ->
      Alcotest.(check (float 0.0))
        (hist ^ " ledger closed") (float_of_int commands)
        (get (hist ^ "_count"));
      let p50 = get (hist ^ "_p50")
      and p95 = get (hist ^ "_p95")
      and p99 = get (hist ^ "_p99")
      and p999 = get (hist ^ "_p999")
      and maxv = get (hist ^ "_max") in
      Alcotest.(check bool)
        (hist ^ " quantile family ordered") true
        (p50 <= p95 && p95 <= p99 && p99 <= p999 && p999 <= maxv))
    (Bench_schema.required_metrics `Histogram)

let test_trace_schema () =
  let r = standalone ~metrics:true ~trace:true () in
  let doc = Trace.to_json (Option.get r.Standalone.trace) in
  match J.parse doc with
  | Error msg -> Alcotest.failf "trace JSON does not parse: %s" msg
  | Ok j ->
      let events =
        match Option.bind (J.member "traceEvents" j) J.as_arr with
        | Some evs -> evs
        | None -> Alcotest.fail "missing traceEvents array"
      in
      Alcotest.(check bool) "trace is non-empty" true (events <> []);
      Alcotest.(check bool)
        "displayTimeUnit present" true
        (J.member "displayTimeUnit" j <> None);
      let saw_exec = ref false and saw_metadata = ref false in
      List.iter
        (fun ev ->
          let str name = Option.bind (J.member name ev) J.as_str in
          match str "ph" with
          | Some "M" ->
              saw_metadata := true;
              Alcotest.(check bool)
                "metadata carries args.name" true
                (Option.bind (J.member "args" ev) (J.member "name") <> None)
          | Some "X" ->
              if str "name" = Some "exec" then saw_exec := true;
              ignore (num_member "pid" ev);
              ignore (num_member "tid" ev);
              Alcotest.(check bool)
                "slice timestamps are sane" true
                (num_member "ts" ev >= 0.0 && num_member "dur" ev >= 0.0)
          | _ -> Alcotest.fail "unexpected event phase (want M or X)")
        events;
      Alcotest.(check bool) "saw execution slices" true !saw_exec;
      Alcotest.(check bool) "saw track metadata" true !saw_metadata

(* --- metrics under the model checker ---

   Virtual time never advances on the check platform, so the registry
   counts decision points instead; the counters still obey the same
   arithmetic invariants. *)

let check_metrics target =
  let sc =
    Psmr_checker.Cos_check.scenario ~target ~workers:2 ~commands:6
      ~write_pct:50.0 ~drain_before_close:true ~workload_seed:3L ()
  in
  let rng = Psmr_util.Rng.create ~seed:5L in
  let o =
    Psmr_checker.Cos_check.run_schedule ~metrics:true sc
      ~pick:(fun ~last:_ tags -> Psmr_util.Rng.int rng (Array.length tags))
  in
  Alcotest.(check bool)
    "schedule completed" true o.Psmr_checker.Check_platform.completed;
  fun name ->
    match List.assoc_opt name o.Psmr_checker.Check_platform.metrics with
    | Some v -> v
    | None -> Alcotest.failf "missing metric %S" name

let test_check_platform_metrics () =
  let get = check_metrics (Psmr_checker.Cos_check.Impl Registry.Lockfree) in
  Alcotest.(check bool)
    "CAS successes <= attempts" true
    (get "platform.cas_successes" <= get "platform.cas_attempts");
  Alcotest.(check (float 0.0)) "every command inserted" 6.0
    (get "cos.insert_ops");
  Alcotest.(check (float 0.0)) "every command removed" 6.0
    (get "cos.remove_ops");
  (* The checker's harness calls get/remove itself (no scheduler layer), so
     the execution histogram stays empty; the two COS-recorded ones see
     every command. *)
  Alcotest.(check (float 0.0))
    "every promotion measured" 6.0
    (get "cos.delivery_ready_count");
  Alcotest.(check (float 0.0))
    "every dispatch measured" 6.0
    (get "sched.ready_dispatch_count")

(* The checker's mutexes and conditions record the same [sync.*] probes
   as the simulated ones: the coarse COS takes its monitor on every
   operation. *)
let test_check_platform_locks () =
  let get = check_metrics (Psmr_checker.Cos_check.Impl Registry.Coarse) in
  Alcotest.(check bool)
    "locks acquired" true
    (get "sync.lock_acquisitions" > 0.0);
  Alcotest.(check bool)
    "contended <= acquisitions" true
    (get "sync.lock_contended" <= get "sync.lock_acquisitions");
  Alcotest.(check bool) "locks held" true (get "sync.lock_hold" > 0.0)

(* --- the declared metric table --- *)

let test_duplicate_declaration () =
  match Metrics.counter "cos.insert_ops" with
  | exception Invalid_argument m ->
      Alcotest.(check bool)
        ("names the duplicate: " ^ m) true
        (String.ends_with ~suffix:"cos.insert_ops" m)
  | _ -> Alcotest.fail "a second declaration of cos.insert_ops was accepted"

(* [early.spec_redo_depth] is a running maximum: redos add up, the depth
   keeps the largest seen. *)
let test_max_counter () =
  let m = Metrics.make () in
  Metrics.enable m;
  Fun.protect ~finally:Metrics.disable (fun () ->
      List.iter (fun depth -> Psmr_obs.Probe.spec_redo ~depth) [ 2; 4; 3 ]);
  Alcotest.(check (float 0.0)) "redos" 3.0 (Metrics.value m "early.spec_redos");
  Alcotest.(check (float 0.0))
    "depth" 4.0
    (Metrics.value m "early.spec_redo_depth")

let layers = [ "sync"; "platform"; "cos"; "sched"; "early"; "part"; "fault" ]

let test_declared_names () =
  List.iter
    (fun (name, _) ->
      match String.index_opt name '.' with
      | Some i
        when List.mem (String.sub name 0 i) layers
             && i < String.length name - 1 ->
          ()
      | _ -> Alcotest.failf "%S is not <layer>.<name> over %s" name
               (String.concat ", " layers))
    (Metrics.declared ())

(* The committed benchmark report, parsed.  The file is a declared dune
   dep, so the path resolves inside the sandbox: dune runtest runs from
   test/, dune exec from the project root. *)
let bench_doc () =
  let path =
    if Sys.file_exists "../BENCH_cos.json" then "../BENCH_cos.json"
    else "BENCH_cos.json"
  in
  let s = In_channel.with_open_bin path In_channel.input_all in
  match J.parse s with
  | Ok d -> d
  | Error e -> Alcotest.failf "BENCH_cos.json does not parse: %s" e

(* The committed report, checked by the schema the bench binary applies
   before it writes one ([Bench_schema]): every section, row shape, sign,
   quantile order and drop-rate range.  The tests below add the
   thresholds the committed full-size run must meet. *)
let valid_bench_doc () =
  let doc = bench_doc () in
  (match Bench_schema.validate doc with
  | Ok () -> ()
  | Error m -> Alcotest.failf "BENCH_cos.json: %s" m);
  doc

let rows name doc =
  match J.member name doc with
  | Some (J.Arr rows) -> rows
  | _ -> Alcotest.failf "missing %s array" name

let str_member name j =
  match Option.bind (J.member name j) J.as_str with
  | Some v -> v
  | None -> Alcotest.failf "missing string member %S" name

(* The engine microbenchmark section (bench/engine_churn.ml) must include
   the [churn_10m] row the fast-path acceptance criterion is read from. *)
let test_bench_engine_schema () =
  let doc = valid_bench_doc () in
  Alcotest.(check bool)
    "churn_10m row present" true
    (List.mem "churn_10m"
       (List.map (str_member "name") (rows "sim_events_per_wall_second" doc)))

(* The partitioned-ordering grid (bench/main.ml [part_sim_kops], produced
   by Part_bench): the ISSUE-9 acceptance ratio (>= 1.7x at 4 partitions
   vs 1 at w32 on a <= 5%-cross keyed workload) both present as a scalar
   and consistent with the rows it was derived from, and the 100%-cross
   rows degrading gracefully (throughput above zero, no view changes).
   Simulated kops are virtual-time deterministic, so these are stable
   regression anchors, not flaky wall-clock readings. *)
let test_bench_part_schema () =
  let doc = valid_bench_doc () in
  let rows = rows "part_sim_kops" doc in
  let find ~partitions ~workers ~max_cross =
    match
      List.find_opt
        (fun row ->
          num_member "partitions" row = float_of_int partitions
          && num_member "workers" row = float_of_int workers
          && num_member "cross_pct" row <= max_cross
          && str_member "cost" row = "light")
        rows
    with
    | Some r -> num_member "kops" r
    | None ->
        Alcotest.failf "no %d-partition w%d low-cross row" partitions workers
  in
  let ratio =
    find ~partitions:4 ~workers:32 ~max_cross:5.0
    /. find ~partitions:1 ~workers:32 ~max_cross:5.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "acceptance ratio %.2f >= 1.7" ratio)
    true (ratio >= 1.7);
  let speedup = num_member "speedup_w32_part4_vs_part1" doc in
  if abs_float (speedup -. ratio) > 0.011 then
    Alcotest.failf "speedup scalar %.2f inconsistent with grid rows (%.2f)"
      speedup ratio;
  let all_cross =
    List.filter (fun row -> num_member "cross_pct" row = 100.0) rows
  in
  Alcotest.(check bool) "a 100%-cross row exists" true (all_cross <> []);
  List.iter
    (fun row ->
      Alcotest.(check bool)
        "100%-cross row made progress" true
        (num_member "kops" row > 0.0);
      Alcotest.(check (float 0.0))
        "100%-cross row is view-change free" 0.0 (num_member "views" row))
    all_cross

(* The open-loop latency-under-load grid (bench/main.ml [open_loop],
   ladders through the replicated deployment by [Psmr_benchmark.Drive]):
   one row per target on the Zipfian YCSB-A scenario, and the
   highest rate meeting the SLO ranks the targets as the closed-loop peaks
   do — coarse below early below the partitioned deployment.  Simulated
   virtual-time results are deterministic, so these are stable regression
   anchors. *)
let test_bench_open_loop_schema () =
  let doc = valid_bench_doc () in
  let max_kops impl =
    let row =
      match
        List.find_opt
          (fun row -> str_member "impl" row = impl)
          (rows "open_loop" doc)
      with
      | Some row -> row
      | None -> Alcotest.failf "no open_loop row for %S" impl
    in
    Alcotest.(check bool)
      (impl ^ " scenario is zipfian YCSB-A") true
      (str_member "scenario" row = "ycsb_a" && num_member "theta" row >= 0.9);
    num_member "max_kops_slo" row
  in
  let coarse = max_kops "coarse" in
  ignore (max_kops "indexed");
  let early = max_kops "early" in
  let part4 = max_kops "part4" in
  Alcotest.(check bool)
    (Printf.sprintf "early max_kops_slo %.0f > coarse %.0f" early coarse)
    true (early > coarse);
  Alcotest.(check bool)
    (Printf.sprintf "part4 max_kops_slo %.0f > early %.0f" part4 early)
    true (part4 > early)

(* The schema rejects a broken report, naming the JSON path: each case
   edits one member of the committed report ([None] deletes it) and
   expects the error to start with [path]. *)
let test_bench_schema_rejects (member, edit, path) () =
  let rec apply keys (v : J.t) =
    match (keys, v) with
    | [], _ -> edit v
    | k :: rest, J.Obj m ->
        Some
          (J.Obj
             (List.filter_map
                (fun (k', x) ->
                  if k' = k then Option.map (fun x -> (k, x)) (apply rest x)
                  else Some (k', x))
                m))
    | k :: rest, J.Arr l ->
        Some
          (J.Arr
             (List.concat
                (List.mapi
                   (fun i x ->
                     if i = int_of_string k then Option.to_list (apply rest x)
                     else [ x ])
                   l)))
    | k :: _, _ -> Alcotest.failf "no member %S to edit" k
  in
  match Bench_schema.validate (Option.get (apply member (bench_doc ()))) with
  | Ok () -> Alcotest.failf "accepted a report with %s broken" path
  | Error m ->
      if not (String.starts_with ~prefix:(path ^ ": ") m) then
        Alcotest.failf "error %S does not name %s" m path

let schema_rejections =
  let set v _ = Some v in
  [
    ("a missing section", ([ "open_loop" ], (fun _ -> None), "$.open_loop"));
    ( "a non-numeric field",
      ([ "keyed_sim_kops"; "0"; "kops" ], set (J.Str "fast"),
       "$.keyed_sim_kops[0].kops") );
    ("an empty grid", ([ "part_sim_kops" ], set (J.Arr []), "$.part_sim_kops"));
    ( "empty steps",
      ([ "open_loop"; "0"; "steps" ], set (J.Arr []), "$.open_loop[0].steps") );
    ( "p50 above p99",
      ([ "open_loop"; "0"; "steps"; "0"; "p50" ], set (J.Num 1.0),
       "$.open_loop[0].steps[0]") );
    ( "more censored than failed commands",
      ([ "open_loop"; "0"; "steps"; "0"; "censored" ], set (J.Num 1e9),
       "$.open_loop[0].steps[0]") );
    ( "a zero latency at a step with arrivals",
      ([ "open_loop"; "0"; "steps"; "0"; "p50" ], set (J.Num 0.0),
       "$.open_loop[0].steps[0].p50") );
  ]

(* Memo-key coverage for the partition grid (the PR-8 lesson: a %.0f in a
   memo key collapsed distinct fractional rates into one simulated point).
   [Part_bench.config_label] must keep every grid dimension — partitions
   included — and fractional workload rates distinct. *)
let test_part_config_label () =
  let module PB = Psmr_harness.Part_bench in
  let base = Psmr_workload.Workload.Keyed.low_conflict in
  let label ?(partitions = 4) ?(workers = 32) ?(batch = 16) spec =
    PB.config_label ~partitions
      ~replicas:(PB.default_replicas ~partitions)
      ~workers ~batch spec
  in
  let distinct what a b =
    if String.equal a b then
      Alcotest.failf "%s collide on memo key %S" what a
  in
  distinct "partition counts" (label ~partitions:1 base) (label ~partitions:4 base);
  distinct "worker counts" (label ~workers:8 base) (label ~workers:32 base);
  distinct "batch sizes" (label ~batch:1 base) (label ~batch:16 base);
  (* The %.0f collision class: rates that agree after integer rounding. *)
  distinct "fractional cross rates"
    (label { base with cross_pct = 0.1 })
    (label { base with cross_pct = 0.4 });
  distinct "fractional write rates"
    (label { base with write_pct = 2.0 })
    (label { base with write_pct = 2.4 });
  distinct "fractional mis rates"
    (label { base with mis_pct = 0.1 })
    (label { base with mis_pct = 0.25 });
  (* Replica count is part of the key even when derived. *)
  let l = label base in
  List.iter
    (fun sub ->
      let n = String.length sub in
      let rec scan i =
        i + n <= String.length l
        && (String.equal (String.sub l i n) sub || scan (i + 1))
      in
      Alcotest.(check bool)
        (Printf.sprintf "label %S mentions %S" l sub)
        true (scan 0))
    [ "part4"; "n5"; "w32"; "b16" ]

let per_impl name f =
  List.map
    (fun (impl, label) ->
      Alcotest.test_case (Printf.sprintf "%s [%s]" name label) `Quick (f impl))
    impls

let () =
  Alcotest.run "obs"
    [
      ("counter-sanity", per_impl "closed ledger" test_counter_sanity);
      ("zero-perturbation", per_impl "metrics off = on" test_zero_perturbation);
      ( "determinism",
        [
          Alcotest.test_case "p999 snapshot ledger" `Quick
            test_assoc_p999_ledger;
          Alcotest.test_case "byte-identical exports" `Quick
            test_deterministic_exports;
          Alcotest.test_case "throughput unaffected" `Quick
            test_throughput_unaffected;
        ] );
      ( "schemas",
        [
          Alcotest.test_case "metrics JSON block" `Quick test_metrics_schema;
          Alcotest.test_case "chrome trace file" `Quick test_trace_schema;
          Alcotest.test_case "bench report schema" `Quick (fun () ->
              ignore (valid_bench_doc ()));
          Alcotest.test_case "bench report engine rows" `Quick
            test_bench_engine_schema;
          Alcotest.test_case "bench report partition grid" `Quick
            test_bench_part_schema;
          Alcotest.test_case "bench report open-loop grid" `Quick
            test_bench_open_loop_schema;
          Alcotest.test_case "partition grid memo keys" `Quick
            test_part_config_label;
        ]
        @ List.map
            (fun (what, case) ->
              Alcotest.test_case ("bench schema rejects " ^ what) `Quick
                (test_bench_schema_rejects case))
            schema_rejections );
      ( "check-platform",
        [
          Alcotest.test_case "decision-point metrics" `Quick
            test_check_platform_metrics;
          Alcotest.test_case "coarse records its locks" `Quick
            test_check_platform_locks;
        ] );
      ( "table",
        [
          Alcotest.test_case "duplicate declaration raises" `Quick
            test_duplicate_declaration;
          Alcotest.test_case "names are <layer>.<name>" `Quick
            test_declared_names;
          Alcotest.test_case "max counter keeps the largest" `Quick
            test_max_counter;
        ] );
    ]
