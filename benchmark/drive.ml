(** One simulated run of a workload through the real deployment:
    [Replica.Make (Sim_platform) (Tagged_kv)] on the discrete-event engine,
    fed open loop.

    An arrival process pushes command ids into the offered queue at the
    workload's rates; it costs no virtual time and never waits for the
    system, so arrivals are a function of the seed alone.  When the queue
    holds [queue_cap] commands the newest arrival is shed.  Each of the
    [clients] handles takes up to [client_batch] queued commands and sends
    them in one [call_batch]; a handle with nothing to send parks until an
    arrival wakes it.  The handles are simulated processes only: no host
    threads or sockets.

    Everything the run measures is read from outside the deployment: the
    handles' timestamps, the service's per-replica records, and a gauge
    sampler that reads public accessors every [sample_period].  The sampler
    runs in every run, traced or not, because [Network.backlog] takes the
    inbox's simulated lock; running it always keeps traced and untraced
    runs identical in virtual time. *)

module Engine = Psmr_sim.Engine
module Arrival = Psmr_traffic.Arrival
module Session = Psmr_traffic.Session
module Scenario = Psmr_traffic.Scenario
module Rng = Psmr_util.Rng

type gauges = {
  mutable samples : int;
  mutable inbox_sum : int;  (** replica 0's undelivered network messages *)
  mutable inbox_max : int;
  mutable backlog_sum : int;  (** replica 0's delivered - executed *)
  mutable backlog_max : int;
  mutable pending_sum : int;  (** replica 0's unmerged partition entries *)
  mutable pending_max : int;
}

type outcome = {
  n : int;  (** commands that arrived, shed ones included *)
  due : float array;  (** arrival time; latency is measured from here *)
  send : float array;  (** [call_batch] start; [nan] if never sent *)
  ret : float array;  (** [call_batch] return; [nan] if never returned *)
  shed : bool array;
  client_resp : int array;
      (** {!Tagged_kv.digest} of the response received; [-1] = none *)
  t_end : float;  (** virtual time the run stopped *)
  calls : int;  (** [call_batch] invocations *)
  retries : int;  (** client timeouts that triggered a failover *)
  records : Tagged_kv.record array;  (** per replica *)
  snapshots : string option array;
      (** service state of each live replica that executed everything it
          delivered *)
  executed : int array;
  views : int;  (** highest view any live replica reached *)
  crosses : int;  (** replica 0's cross-partition merges *)
  holes : int;
  net_sent : int;
  gauges : gauges;
  events : int;
  wall : float;  (** wall seconds spent in the simulation loop *)
  cpu : float array;
      (** process CPU seconds the loop spent on each [Pinned.cpu_slice] of
          virtual time *)
  registry : Psmr_obs.Metrics.t option;  (** traced runs only *)
}

let wall_now = Unix.gettimeofday

(** Build everything a run needs — service state and alias tables,
    session pool, arrival process, deployment — and return the run
    itself, to be called once.  The caller times this call as the
    set-up. *)
let prepare (w : Workloads.t) ~seed =
  let engine = Engine.create () in
  let (module SP) = Psmr_sim.Sim_platform.make engine Pinned.costs in
  let module Dep = Psmr_replica.Replica.Make (SP) (Tagged_kv) in
  let now () = Engine.now engine in
  let d = w.deployment in
  let services =
    Array.init d.replicas (fun _ ->
        Tagged_kv.create ~records:Pinned.records ~now)
  in
  let master = Rng.create ~seed:(Int64.of_int seed) in
  let pool =
    Session.create ~seed:(Rng.int64 master) ~sessions:Pinned.sessions ()
  in
  let arrivals =
    Arrival.create ~seed:(Rng.int64 master)
      (Steps { period = w.step; levels = w.levels })
  in
  let gen =
    Scenario.generator
      (Scenario.spec ~records:Pinned.records ~theta:Pinned.theta w.scenario)
  in
  let abcast =
    match d.ordering with
    | Single -> Pinned.abcast
    | Parts _ -> Pinned.part_abcast
  in
  let dep =
    Dep.Deployment.create
      {
        (Dep.Deployment.default_config ~make_service:(Array.get services) ())
        with
        replicas = d.replicas;
        clients = Pinned.clients;
        mode = Workloads.mode d;
        abcast;
        tick_interval = Pinned.tick_interval;
        client_timeout = Pinned.client_timeout;
        latency = (fun ~src:_ ~dst:_ -> Pinned.lan_latency);
        opt_execute =
          Some
            (fun s c ->
              let resp, u = Tagged_kv.execute_undoable s c in
              (resp, fun () -> Tagged_kv.undo s u));
      }
  in
  fun ~traced ->
    let arrivals_end = Workloads.ladder_end w in
    let t_end = arrivals_end +. w.drain in
    let due = Grow.create Float.nan
    and send = Grow.create Float.nan
    and ret = Grow.create Float.nan
    and shed = Grow.create false
    and ops = Grow.create (Psmr_app.Kv_store.Get 0)
    and client_resp = Grow.create (-1) in
    let n = ref 0 and calls = ref 0 in
    let queue : int Queue.t = Queue.create () in
    let idle : (unit -> unit) Queue.t = Queue.create () in
    Engine.spawn engine ~name:"arrivals" (fun () ->
        let rec loop () =
          let t = Arrival.next arrivals in
          if t < arrivals_end then begin
            if t > now () then Engine.delay (t -. now ());
            let id = !n in
            incr n;
            Grow.set due id (now ());
            (* Drawn for shed commands too, so the command stream does not
               depend on how the system copes. *)
            let sid = Session.draw pool in
            Grow.set ops id
              (Scenario.to_kv (Scenario.next gen (Session.stream pool sid)));
            if Queue.length queue >= Pinned.queue_cap then Grow.set shed id true
            else begin
              Queue.push id queue;
              match Queue.take_opt idle with Some wake -> wake () | None -> ()
            end;
            loop ()
          end
        in
        loop ());
    Dep.Deployment.start dep;
    let handles = Array.init Pinned.clients (Dep.Deployment.client dep) in
    Array.iteri
      (fun ci c ->
        Engine.spawn engine ~name:(Printf.sprintf "handle-%d" ci) (fun () ->
            let rec loop () =
              if Queue.is_empty queue then begin
                Engine.suspend (fun wake -> Queue.push wake idle);
                loop ()
              end
              else begin
                let ids =
                  Array.init
                    (min Pinned.client_batch (Queue.length queue))
                    (fun _ -> Queue.pop queue)
                in
                Array.iter (fun id -> Grow.set send id (now ())) ids;
                incr calls;
                let cmds =
                  Array.map
                    (fun id -> { Tagged_kv.id; op = Grow.get ops id })
                    ids
                in
                match Dep.call_batch c cmds with
                | None -> ()
                | Some resps ->
                    Array.iteri
                      (fun i id ->
                        Grow.set ret id (now ());
                        Grow.set client_resp id (Tagged_kv.digest resps.(i)))
                      ids;
                    loop ()
              end
            in
            loop ()))
      handles;
    Option.iter
      (fun (r, at) ->
        Engine.spawn engine ~delay:at ~name:"crash" (fun () ->
            Dep.Deployment.crash_replica dep r))
      w.crash;
    let g =
      {
        samples = 0;
        inbox_sum = 0;
        inbox_max = 0;
        backlog_sum = 0;
        backlog_max = 0;
        pending_sum = 0;
        pending_max = 0;
      }
    in
    let net = Dep.Deployment.network dep in
    Engine.spawn engine ~name:"gauges" (fun () ->
        let rec loop () =
          Engine.delay Pinned.sample_period;
          if now () < t_end then begin
            let inbox = Dep.Net.backlog net 0 in
            let backlog =
              Dep.Deployment.replica_delivered dep 0
              - Dep.Deployment.replica_executed dep 0
            in
            let pending = Dep.Deployment.replica_merge_pending dep 0 in
            g.samples <- g.samples + 1;
            g.inbox_sum <- g.inbox_sum + inbox;
            g.inbox_max <- max g.inbox_max inbox;
            g.backlog_sum <- g.backlog_sum + backlog;
            g.backlog_max <- max g.backlog_max backlog;
            g.pending_sum <- g.pending_sum + pending;
            g.pending_max <- max g.pending_max pending;
            loop ()
          end
        in
        loop ());
    let registry =
      if traced then
        Some
          (Psmr_obs.Metrics.make ~now
             ~track:(fun () -> Engine.running_tag engine)
             ())
      else None
    in
    Option.iter Psmr_obs.Metrics.enable registry;
    (* The loop runs in slices of virtual time, each timed on its own, so
       a repetition can be compared slice by slice.  Stopping and resuming
       the engine at a slice boundary does not change what it executes. *)
    let slices = int_of_float (Float.ceil (t_end /. Pinned.cpu_slice)) in
    let cpu = Array.make slices 0.0 in
    let wall0 = wall_now () in
    Fun.protect
      ~finally:(fun () -> if traced then Psmr_obs.Metrics.disable ())
      (fun () ->
        for k = 0 to slices - 1 do
          let until =
            if k = slices - 1 then t_end
            else float_of_int (k + 1) *. Pinned.cpu_slice
          in
          let c0 = Sys.time () in
          Engine.run ~until engine;
          cpu.(k) <- Sys.time () -. c0
        done);
    let wall = wall_now () -. wall0 in
    let n = !n in
    let replicas = Array.init d.replicas Fun.id in
    let crashed = Array.map (Dep.Net.is_crashed net) replicas in
    let executed = Array.map (Dep.Deployment.replica_executed dep) replicas in
    let delivered = Array.map (Dep.Deployment.replica_delivered dep) replicas in
    let live =
      List.filter (fun r -> not crashed.(r)) (Array.to_list replicas)
    in
    {
      n;
      due = Grow.prefix due n;
      send = Grow.prefix send n;
      ret = Grow.prefix ret n;
      shed = Grow.prefix shed n;
      client_resp = Grow.prefix client_resp n;
      t_end;
      calls = !calls;
      retries =
        Array.fold_left (fun acc c -> acc + Dep.client_retries c) 0 handles;
      records = Array.map (fun (s : Tagged_kv.t) -> s.record) services;
      snapshots =
        Array.map
          (fun r ->
            if crashed.(r) || executed.(r) <> delivered.(r) then None
            else Some (Tagged_kv.snapshot services.(r)))
          replicas;
      executed;
      views =
        List.fold_left
          (fun acc r -> max acc (Dep.Deployment.replica_view dep r))
          0 live;
      crosses = Dep.Deployment.replica_crosses dep 0;
      holes = Dep.Deployment.replica_holes dep 0;
      net_sent = fst (Dep.Net.stats net);
      gauges = g;
      events = Engine.events_executed engine;
      wall;
      cpu;
      registry;
    }
