(** Ablation experiments beyond the paper's figures that are not a sweep
    of standalone COS points (those — A1 lock granularity, A2 graph bound,
    A3 realistic conflicts, A4's COS series and A6's throughput table — are
    point lists in {!Figures}):

    - {!insert_cost_vs_population}: A6's per-insert cost micro-measure;
    - {!run_early}: A4's early (queue-dispatch) scheduler series;
    - {!failover_timeline}: throughput of a replicated deployment across a
      leader crash, showing the outage window and recovery (the protocol
      cost the paper's evaluation keeps out of scope). *)

open Psmr_workload

(* --- A6: per-insert cost vs graph population --- *)

(** Per-insert virtual-time cost as a function of graph population, with no
    workers attached (every inserted command stays live): the scan-based
    insert is linear in the population, the indexed insert flat.  Returns
    (population, ns per insert) series. *)
let insert_cost_vs_population
    ?(impls = [ Psmr_early.Registry.Lockfree; Psmr_early.Registry.Indexed ])
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
            let (module Cos) =
              Psmr_early.Registry.instantiate_cos impl (module SP)
                (module Standalone.Cmd)
            in
            (* No workers: the commands' execution cost is never charged. *)
            let next =
              Standalone.gen
                (Paper { Workload.write_pct; cost = Workload.Light })
            in
            let rng = Psmr_util.Rng.create ~seed in
            let per_insert = ref 0.0 in
            Psmr_sim.Engine.spawn engine (fun () ->
                let cos = Cos.create ~max_size:(pop + measured) () in
                for _ = 1 to pop do
                  Cos.insert cos (next rng)
                done;
                let t0 = SP.now () in
                for _ = 1 to measured do
                  Cos.insert cos (next rng)
                done;
                per_insert :=
                  (SP.now () -. t0) /. float_of_int measured *. 1e9);
            Psmr_sim.Engine.run engine;
            (float_of_int pop, !per_insert))
          populations
      in
      { Psmr_util.Table.name = Psmr_early.Registry.to_string (Cos impl); points })
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
  let module E = Psmr_sched.Early.Make (SP) (Standalone.Cmd) in
  let execute (c : Standalone.Cmd.t) =
    Sim_run.exec sim c.cost;
    Sim_run.tick sim
  in
  let sched = E.start ~workers ~execute () in
  let next = Standalone.gen (Paper spec) in
  let rng = Psmr_util.Rng.create ~seed in
  (* Early scheduling has no bounded shared structure; throttle the
     inserter to a bounded in-flight window comparable to the COS bound so
     queues do not grow without limit. *)
  Sim_run.forever sim ~name:"inserter" (fun () ->
      if E.in_flight sched < 150 then
        E.submit sched (next rng)
      else SP.sleep 2e-6);
  ignore (Sim_run.run sim ~warmup ~duration : float);
  Sim_run.kops sim

(* --- failover timeline --- *)

type failover = {
  timeline : (float * float) list;
  views : int;
  outage : float option;
}

(* From the crash to the start of the first bucket back above 90% of the
   mean pre-crash kops, once throughput has dipped below it. *)
let outage ~crash_at ~bucket timeline =
  let after_crash (t, _) = t -. bucket >= crash_at -. 1e-9 in
  let pre = List.filter (fun s -> not (after_crash s)) timeline in
  let bar =
    0.9 *. List.fold_left (fun a (_, k) -> a +. k) 0.0 pre
    /. float_of_int (max 1 (List.length pre))
  in
  let rec dip = function
    | [] -> None
    | (_, k) :: rest when k >= bar -> dip rest
    | rest -> back rest
  and back = function
    | [] -> None
    | (t, k) :: _ when k >= bar -> Some (t -. bucket -. crash_at)
    | _ :: rest -> back rest
  in
  dip (List.filter after_crash timeline)

(** Run a replicated deployment, crash the leader mid-run, and sample the
    surviving replica's completed-command count in fixed buckets
    (bucket_end_time, kops within bucket) — the outage dip and recovery
    are directly visible. *)
let failover_timeline ?(crash_at = 0.3) ?(until = 1.0) ?(bucket = 0.02)
    ?(clients = 100)
    ?(mode =
      Psmr_replica.Replica.Parallel
        { impl = Psmr_early.Registry.Lockfree; workers = 16 }) () =
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
  let timeline = Psmr_util.Vec.to_list samples in
  {
    timeline;
    views = d.replica_view 1;
    outage = outage ~crash_at ~bucket timeline;
  }
