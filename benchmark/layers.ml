(** Per-layer metrics of a traced run, and its Chrome trace.

    A completed command's latency splits into four stages, measured from
    outside the deployment:
    - [client.send_lag]: due → the handle's [call_batch] starts (offered
      queue and handle availability);
    - [order_sched]: send → the first execution start (network, ordering,
      merge and scheduling);
    - [app.exec]: first execution start → last execution end (waiting for
      a core, execution, re-execution after rollback);
    - [reply]: execution end → [call_batch] returns (commit wait, reply
      network, the rest of the client's batch).
    The execution stamps are those of the replica that finished first.
    Stages are integer nanoseconds, so they add up to the end-to-end
    latency exactly. *)

let ns t = Float.to_int (Float.round (t *. 1e9))

type stages = {
  ids : int array;  (** completed commands, ascending *)
  stage : int array array;  (** [stage.(k).(j)]: stage [k] of [ids.(j)], ns *)
}

let stage_names =
  [| "client.send_lag_ms"; "order_sched_ms"; "app.exec_ms"; "reply_ms" |]

(** Stage deltas of every completed command, and the commands whose
    stages are negative or do not add up (the list must be empty). *)
let stages (o : Drive.outcome) =
  let ids =
    List.filter (fun i -> not (Float.is_nan o.ret.(i))) (List.init o.n Fun.id)
    |> Array.of_list
  in
  let stage = Array.init 4 (fun _ -> Array.make (Array.length ids) 0) in
  let bad = ref [] in
  Array.iteri
    (fun j i ->
      let last_end r = Grow.get o.records.(r).last_end i in
      let first = ref (-1) in
      Array.iteri
        (fun r _ ->
          if
            (not (Float.is_nan (last_end r)))
            && (!first < 0 || last_end r < last_end !first)
          then first := r)
        o.records;
      if !first < 0 then bad := i :: !bad
      else begin
        let t =
          [|
            ns o.due.(i);
            ns o.send.(i);
            ns (Grow.get o.records.(!first).first_start i);
            ns (last_end !first);
            ns o.ret.(i);
          |]
        in
        for k = 0 to 3 do
          stage.(k).(j) <- t.(k + 1) - t.(k)
        done;
        let sum = Array.fold_left (fun acc s -> acc + s.(j)) 0 stage in
        if sum <> t.(4) - t.(0) || Array.exists (fun s -> s.(j) < 0) stage
        then bad := i :: !bad
      end)
    ids;
  ({ ids; stage }, List.rev !bad)

(* Quantile in ms of stage [k] over the commands due in a window. *)
let stage_quantile (o : Drive.outcome) st k (lo, hi) q =
  let v = Psmr_util.Vec.create () in
  Array.iteri
    (fun j i ->
      if o.due.(i) >= lo && o.due.(i) < hi then
        Psmr_util.Vec.push v st.stage.(k).(j))
    st.ids;
  let a = Psmr_util.Vec.to_array v in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else float_of_int a.(Report.rank q n) *. 1e-6

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let count p a =
  Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 a

let is_set t = not (Float.is_nan t)

(** [(name, value, unit, better)] of every per-layer metric, in a fixed
    order.  [untraced_cpu] is the untraced simulation's CPU time per
    completed command, against which the tracing overhead is measured. *)
let metrics (w : Workloads.t) (o : Drive.outcome) st ~untraced_cpu =
  let completed = Array.length st.ids in
  let per_op x = ratio x completed in
  let registry = Option.get o.registry in
  let c = Psmr_obs.Metrics.counters registry in
  let p99_ms hist =
    Psmr_util.Histogram.quantile (hist registry) 0.99 *. 1e3
  in
  (* The registry's ready-to-dispatch histogram is the COS scheduler's or
     the class-map dispatcher's, whichever the backend is. *)
  let dispatch_ms ~early =
    match Psmr_early.Registry.of_string w.deployment.backend with
    | Some (Early _) when early -> p99_ms Psmr_obs.Metrics.ready_dispatch
    | Some (Cos _) when not early -> p99_ms Psmr_obs.Metrics.ready_dispatch
    | Some _ | None -> 0.0
  in
  let g = o.gauges in
  let mean sum = ratio sum g.samples in
  let stage_metrics =
    List.concat_map
      (fun (win, suffix) ->
        List.concat_map
          (fun k ->
            List.map
              (fun (q, qn) ->
                ( Printf.sprintf "%s.%s.%s" stage_names.(k) qn suffix,
                  stage_quantile o st k win q,
                  "ms",
                  "lower" ))
              [ (0.5, "p50"); (0.99, "p99") ])
          [ 0; 1; 2; 3 ])
      [ (w.base, "base"); (w.stress, "stress") ]
  in
  (* Executions per command a replica executed: above 1 only through
     re-execution after a rollback. *)
  let execs, executed =
    Array.fold_left
      (fun (e, d) (rc : Tagged_kv.record) ->
        (e + rc.execs, d + count is_set (Grow.prefix rc.first_start o.n)))
      (0, 0) o.records
  in
  let cpu_per_op =
    Array.fold_left ( +. ) 0.0 o.cpu /. float_of_int (max 1 completed)
  in
  stage_metrics
  @ [
      ("client.batch_fill", ratio (count is_set o.send) o.calls, "cmds/call",
       "higher");
      ("client.retries", float_of_int o.retries, "count", "lower");
      ("traffic.ops_attempted", float_of_int o.n, "count", "higher");
      ("traffic.ops_shed", float_of_int (count Fun.id o.shed), "count",
       "lower");
      ("net.msgs_per_op", per_op o.net_sent, "msgs/op", "lower");
      ("net.replica0_inbox.mean", mean g.inbox_sum, "msgs", "lower");
      ("net.replica0_inbox.max", float_of_int g.inbox_max, "msgs", "lower");
      ("abcast.views", float_of_int o.views, "count", "lower");
      ("abcast.marshal_per_op", per_op c.work_marshal, "calls/op", "lower");
      ("pmerge.pending.mean", mean g.pending_sum, "entries", "lower");
      ("pmerge.pending.max", float_of_int g.pending_max, "entries", "lower");
      ("pmerge.crosses_per_op", per_op o.crosses, "ratio", "lower");
      ("pmerge.holes", float_of_int o.holes, "count", "lower");
      ("part.cross_stall_ms.p99", p99_ms Psmr_obs.Metrics.cross_stall, "ms",
       "lower");
      ("replica.exec_backlog.mean", mean g.backlog_sum, "cmds", "lower");
      ("replica.exec_backlog.max", float_of_int g.backlog_max, "cmds",
       "lower");
      ("cos.ready_ms.p99", p99_ms Psmr_obs.Metrics.delivery_ready, "ms",
       "lower");
      ("sched.dispatch_ms.p99", dispatch_ms ~early:false, "ms", "lower");
      ("cos.lock_wait_ms_per_op",
       c.lock_wait *. 1e3 /. float_of_int (max 1 executed), "ms/op", "lower");
      ("cos.cas_success_ratio", ratio c.cas_successes c.cas_attempts, "ratio",
       "higher");
      ("cos.visits_per_insert", ratio c.insert_visits c.insert_ops,
       "visits/op", "lower");
      ("early.barrier_frac",
       ratio c.class_barriers (c.class_direct + c.class_barriers), "ratio",
       "lower");
      ("early.spec_rollback_ratio", ratio c.spec_undone c.spec_execs, "ratio",
       "lower");
      ("early.dispatch_ms.p99", dispatch_ms ~early:true, "ms", "lower");
      ("app.execs_per_op", ratio execs executed, "execs/op", "lower");
      ("engine.events_per_op", per_op o.events, "events/op", "lower");
      ("engine.events_per_cpu_s", per_op o.events /. untraced_cpu,
       "events/s", "higher");
      ("trace.overhead_pct", 100.0 *. ((cpu_per_op /. untraced_cpu) -. 1.0),
       "%", "lower");
    ]

(** Chrome trace of the four stage spans of every 1000th command and of
    every command due within 50 ms of a crash.  A command's spans share
    its id as their track. *)
let trace_json (w : Workloads.t) (o : Drive.outcome) st =
  let tr = Psmr_obs.Trace.create () in
  Psmr_obs.Trace.set_process_name tr ~pid:1 (w.name ^ " commands");
  let sampled i =
    i mod 1000 = 0
    ||
    match w.crash with
    | Some (_, at) -> Float.abs (o.due.(i) -. at) <= 0.05
    | None -> false
  in
  Array.iteri
    (fun j i ->
      if sampled i then begin
        let ts = ref o.due.(i) in
        Array.iteri
          (fun k name ->
            let dur = float_of_int st.stage.(k).(j) *. 1e-9 in
            (* The span is the stage's metric name without "_ms". *)
            Psmr_obs.Trace.slice tr
              ~name:(String.sub name 0 (String.length name - 3))
              ~pid:1 ~tid:i ~ts:!ts ~dur;
            ts := !ts +. dur)
          stage_names
      end)
    st.ids;
  Psmr_obs.Trace.to_json tr
