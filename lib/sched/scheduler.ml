(** The generic parallel-SMR execution runtime — the paper's Algorithm 1.

    A single scheduler thread (the "parallelizer") inserts delivered
    commands into a COS; a {!Pool} of worker threads loops over
    [get; execute; remove].  The runtime is agnostic to which COS
    implementation and which platform it runs on.

    A work item is a reserved COS handle.  A simulated core crash requeues
    it (COS [exe -> rdy] demotion, so dependents and the conflict order
    are untouched); a stalled or slowed worker sleeps before executing,
    so the command's dependents wait the extra time.

    Shutdown protocol: the owner stops submitting, calls {!shutdown}, which
    waits for the structure to drain, closes it (making blocked [get]s
    return [None]) and joins the workers. *)

open Psmr_platform

module Make (P : Platform_intf.S) (Cos : Psmr_cos.Cos_intf.S) = struct
  module Pool = Pool.Make (P)

  type cmd = Cos.cmd
  type t = { cos : Cos.t; pool : Pool.t }

  let start ?fault ?max_size ~workers ~execute () =
    if workers <= 0 then invalid_arg "Scheduler.start: workers must be positive";
    let cos = Cos.create ?max_size ~worker_bound:workers () in
    let pool = Pool.create ?fault ~workers () in
    Pool.spawn pool
      ~fetch:(fun _ -> Cos.get cos)
      ~requeue:(fun _ h -> Cos.requeue cos h)
      ~run:(fun _ h ->
        let t0 = Psmr_obs.Probe.now () in
        execute (Cos.command h);
        Psmr_obs.Probe.exec_latency (Psmr_obs.Probe.now () -. t0);
        Cos.remove cos h;
        Pool.count_executed pool);
    { cos; pool }

  let submit t c =
    Pool.count_submitted t.pool 1;
    Cos.insert t.cos c

  let submit_batch t cs =
    Psmr_obs.Probe.batch (Array.length cs);
    Pool.count_submitted t.pool (Array.length cs);
    Cos.insert_batch t.cos cs

  let submitted t = Pool.submitted t.pool
  let executed t = Pool.executed t.pool
  let in_flight t = Pool.in_flight t.pool
  let crashed_workers t = Pool.crashed t.pool
  let drain ?poll t = Pool.drain ?poll t.pool
  let shutdown ?poll t =
    Pool.shutdown ?poll t.pool ~close:(fun () -> Cos.close t.cos)
end
