(** Ablation experiments beyond the paper's figures, probing the design
    choices its text calls out:

    - {!granularity}: §7.3.2 closes by noting that whole-graph and per-node
      locks are "two ends of a lock granularity spectrum" and suggests
      granular locks in between — we sweep the stripe width of the
      segment-locked COS from per-node to whole-graph;
    - {!graph_size}: the evaluation fixes the dependency graph at 150
      entries; we sweep the bound to show the window/backpressure trade-off;
    - {!realistic_conflicts}: §7.4.2 cites evidence that realistic conflict
      rates sit between 0.3% and 2% — a fine-grained sweep over exactly that
      band;
    - {!failover_timeline}: throughput of a replicated deployment across a
      leader crash, showing the outage window and recovery (the protocol
      cost the paper's evaluation keeps out of scope). *)

open Psmr_workload

(* --- lock granularity spectrum --- *)

(** Throughput of the striped COS as stripe width grows, bracketed by
    fine-grained (width 1 is the same locking discipline) and the
    coarse-grained monitor.  Returns one series per workload cost. *)
let granularity ?(workers = 16)
    ?(widths = [ 1; 2; 4; 8; 16; 32; 64; 150 ]) ?(write_pct = 5.0)
    ?duration ?warmup () =
  List.map
    (fun cost ->
      let points =
        List.map
          (fun k ->
            let r =
              Standalone.run
                ~impl:(Psmr_cos.Registry.Striped k)
                ~workers
                ~spec:{ write_pct; cost }
                ?duration ?warmup ()
            in
            (float_of_int k, r.kops))
          widths
      in
      { Psmr_util.Table.name = Workload.cost_label cost; points })
    [ Workload.Light; Workload.Moderate ]

(* --- dependency graph bound --- *)

(** Throughput and mean graph population as the COS capacity grows.  Small
    graphs starve workers (insert back-pressure); large graphs lengthen
    every traversal of the list-based algorithms. *)
let graph_size ?(workers = 16) ?(write_pct = 5.0)
    ?(sizes = [ 10; 25; 50; 100; 150; 300; 600; 1200 ]) ?duration ?warmup () =
  List.map
    (fun impl ->
      let points =
        List.map
          (fun max_size ->
            let r =
              Standalone.run ~impl ~workers ~max_size
                ~spec:{ write_pct; cost = Workload.Moderate }
                ?duration ?warmup ()
            in
            (float_of_int max_size, r.kops))
          sizes
      in
      { Psmr_util.Table.name = Psmr_cos.Registry.to_string impl; points })
    Psmr_cos.Registry.paper

(* --- the realistic conflict band (0.3%..2% writes) --- *)

let realistic_conflicts ?(workers = 16)
    ?(write_pcts = [ 0.3; 0.5; 0.75; 1.0; 1.25; 1.5; 2.0 ]) ?duration ?warmup
    () =
  List.map
    (fun impl ->
      let points =
        List.map
          (fun pct ->
            let r =
              Standalone.run ~impl ~workers
                ~spec:{ write_pct = pct; cost = Workload.Moderate }
                ?duration ?warmup ()
            in
            (pct, r.kops))
          write_pcts
      in
      { Psmr_util.Table.name = Psmr_cos.Registry.to_string impl; points })
    Psmr_cos.Registry.paper

(* --- indexed vs scan-based insert --- *)

(** Throughput of the key-indexed COS against the lock-free scan baseline
    in the Fig. 2 standalone setup (light cost, 0% writes), with and
    without delivery-time batching.  The insert thread is the bottleneck
    here, so eliminating its O(n) scan moves the whole curve. *)
let indexed_vs_scan ?(write_pct = 0.0)
    ?(worker_counts = [ 1; 2; 4; 8; 16; 32; 64 ]) ?(batch = 16) ?duration
    ?warmup () =
  let series name impl batch =
    let points =
      List.map
        (fun w ->
          let r =
            Standalone.run ~impl ~workers:w ~batch
              ~spec:{ Workload.write_pct; cost = Workload.Light }
              ?duration ?warmup ()
          in
          (float_of_int w, r.kops))
        worker_counts
    in
    { Psmr_util.Table.name; points }
  in
  [
    series "lock-free (scan insert)" Psmr_cos.Registry.Lockfree 1;
    series "indexed" Psmr_cos.Registry.Indexed 1;
    series (Printf.sprintf "indexed, batch %d" batch) Psmr_cos.Registry.Indexed
      batch;
  ]

(** Per-insert virtual-time cost as a function of graph population, with no
    workers attached (every inserted command stays live): the scan-based
    insert is linear in the population, the indexed insert flat.  Returns
    (population, ns per insert) series. *)
let insert_cost_vs_population
    ?(impls = [ Psmr_cos.Registry.Lockfree; Psmr_cos.Registry.Indexed ])
    ?(populations = [ 10; 50; 100; 200; 400; 800 ]) ?(measured = 200)
    ?(write_pct = 5.0) ?(seed = 11L) () =
  List.map
    (fun impl ->
      let points =
        List.map
          (fun pop ->
            Sim_run.with_sim @@ fun sim ->
            let engine = Sim_run.engine sim in
            let (module SP) = Sim_run.platform sim in
            let (module Cos : Psmr_cos.Cos_intf.S with type cmd = bool) =
              Psmr_cos.Registry.instantiate_keyed impl (module SP)
                (module Standalone.Rw)
            in
            let rng = Psmr_util.Rng.create ~seed in
            let per_insert = ref 0.0 in
            Psmr_sim.Engine.spawn engine (fun () ->
                let cos = Cos.create ~max_size:(pop + measured) () in
                for _ = 1 to pop do
                  Cos.insert cos (Psmr_util.Rng.below_percent rng write_pct)
                done;
                let t0 = SP.now () in
                for _ = 1 to measured do
                  Cos.insert cos (Psmr_util.Rng.below_percent rng write_pct)
                done;
                per_insert :=
                  (SP.now () -. t0) /. float_of_int measured *. 1e9);
            Psmr_sim.Engine.run engine;
            (float_of_int pop, !per_insert))
          populations
      in
      { Psmr_util.Table.name = Psmr_cos.Registry.to_string impl; points })
    impls

(* --- early vs late scheduling --- *)

(* Standalone throughput of the early (queue-dispatch) scheduler on the
   simulated platform, on [Standalone.run]'s setup so the comparison with
   the COS algorithms is apples to apples. *)
let run_early ~workers ~(spec : Workload.spec)
    ?(duration = Standalone.default_duration)
    ?(warmup = Standalone.default_warmup) ?(seed = 42L) () =
  Sim_run.with_sim @@ fun sim ->
  let (module SP) = Sim_run.platform sim in
  let module E = Psmr_sched.Early.Make (SP) (Standalone.Rw) in
  let execute is_write =
    Sim_run.exec sim (Model.exec_cost spec.cost ~is_write);
    Sim_run.tick sim
  in
  let sched = E.start ~workers ~execute () in
  let rng = Psmr_util.Rng.create ~seed in
  (* Early scheduling has no bounded shared structure; throttle the
     inserter to a bounded in-flight window comparable to the COS bound so
     queues do not grow without limit. *)
  Sim_run.forever sim ~name:"inserter" (fun () ->
      if E.in_flight sched < 150 then
        E.submit sched (Psmr_util.Rng.below_percent rng spec.write_pct)
      else SP.sleep 2e-6);
  ignore (Sim_run.run sim ~warmup ~duration : float);
  Sim_run.kops sim

(** Early (queue-dispatch) scheduling versus the lock-free COS across the
    write-percentage axis, light cost: early scheduling wins at very low
    conflict rates (no scheduling structure at all) and degrades faster as
    every write barriers all workers. *)
let early_vs_late ?(workers = 16)
    ?(write_pcts = [ 0.; 1.; 5.; 10.; 15.; 25.; 50.; 100. ]) ?duration ?warmup
    () =
  let early =
    {
      Psmr_util.Table.name = "early scheduling";
      points =
        List.map
          (fun pct ->
            ( pct,
              run_early ~workers
                ~spec:{ Workload.write_pct = pct; cost = Workload.Light }
                ?duration ?warmup () ))
          write_pcts;
    }
  in
  let late impl =
    {
      Psmr_util.Table.name = Psmr_cos.Registry.to_string impl;
      points =
        List.map
          (fun pct ->
            let r =
              Standalone.run ~impl ~workers
                ~spec:{ Workload.write_pct = pct; cost = Workload.Light }
                ?duration ?warmup ()
            in
            (pct, r.kops))
          write_pcts;
    }
  in
  [ early; late Psmr_cos.Registry.Lockfree; late Psmr_cos.Registry.Coarse ]

(* --- failover timeline --- *)

(** Run a replicated deployment, crash the leader mid-run, and sample the
    surviving replica's completed-command count in fixed buckets.  Returns
    (bucket_end_time, kops within bucket) — the outage dip and recovery are
    directly visible. *)
let failover_timeline ?(crash_at = 0.3) ?(until = 1.0) ?(bucket = 0.02)
    ?(clients = 100)
    ?(mode =
      Psmr_replica.Replica.Parallel
        { impl = Psmr_cos.Registry.Lockfree; workers = 16 }) () =
  Sim_run.with_sim @@ fun sim ->
  let engine = Sim_run.engine sim in
  let d =
    Smr.deploy sim ~mode
      ~spec:{ Workload.write_pct = 5.0; cost = Workload.Light }
      ~clients ~cmds_per_request:10
      ~client_timeout:0.1 (* fail over quickly relative to the timeline *)
      ~seed:3L ~on_reply:ignore
  in
  Psmr_sim.Engine.spawn engine ~delay:crash_at (fun () -> d.crash_replica 0);
  (* Sample executed counters at bucket boundaries.  Replica 1 survives and
     becomes the new leader. *)
  let samples = Psmr_util.Vec.create () in
  let last = ref 0 in
  let schedule_sample t =
    if t <= until +. 1e-9 then
      Psmr_sim.Engine.spawn engine ~delay:t (fun () ->
          let now_exec = d.replica_executed 1 in
          Psmr_util.Vec.push samples
            (t, float_of_int (now_exec - !last) /. bucket /. 1000.0);
          last := now_exec)
  in
  let n_buckets = int_of_float (Float.round (until /. bucket)) in
  for i = 1 to n_buckets do
    schedule_sample (float_of_int i *. bucket)
  done;
  Psmr_sim.Engine.run ~until engine;
  (Psmr_util.Vec.to_list samples, d.replica_view 1)
