(** Replicated state machines over atomic broadcast — the deployment layer
    corresponding to the paper's BFT-SMaRt testbed (Figure 1).

    [Make (P) (S)] assembles, for a service [S] on platform [P]:

    - the wire protocol: broadcast messages, client requests, replies and
      the self-addressed timer ticks that keep each replica single-threaded;
    - replicas: an event loop feeding the {!Psmr_broadcast.Abcast} protocol,
      an {e executor} that runs delivered commands — either sequentially
      (classical SMR) or through a scheduling backend with worker threads
      (parallel SMR) — and an at-most-once table replaying cached replies
      to retried requests;
    - closed-loop clients that submit one command at a time, time out and
      fail over to another replica (leader crashes included);
    - {!Deployment}: wiring n replicas and m clients over a
      {!Psmr_net.Network} with a configurable latency model.

    Everything is platform-generic: the test suite runs deployments on real
    threads, the benchmark harness runs the very same code under the
    discrete-event simulator. *)

open Psmr_platform

type mode =
  | Sequential  (** classical SMR: execute in delivery order, one at a time *)
  | Parallel of { impl : Psmr_cos.Registry.impl; workers : int }
      (** scheduler + COS + worker pool (Algorithm 1) *)
  | Parallel_early of { workers : int; classes : int option }
      (** class-map dispatcher (conservative early scheduling);
          [classes = None] means one class per worker *)
  | Parallel_early_opt of { workers : int; classes : int option }
      (** the same executor as [Parallel_early]: the deployment delivers
          in final order only, so the optimistic protocol has nothing to
          speculate on and the dispatcher takes the conservative feed *)
  | Partitioned of { partitions : int; inner : mode }
      (** sharded ordering: N independent sequencers with deterministic
          cross-partition merge ({!Psmr_broadcast.Partition}), executing
          through [inner] (any non-[Partitioned] mode) *)

let rec mode_label = function
  | Sequential -> "sequential SMR"
  | Parallel { impl; workers } ->
      Printf.sprintf "%s, %d workers" (Psmr_cos.Registry.to_string impl) workers
  | Parallel_early { workers; classes } ->
      Printf.sprintf "%s, %d workers"
        (Psmr_early.Registry.to_string
           (Psmr_early.Registry.Early { classes; optimistic = false }))
        workers
  | Parallel_early_opt { workers; classes } ->
      Printf.sprintf "%s, %d workers"
        (Psmr_early.Registry.to_string
           (Psmr_early.Registry.Early { classes; optimistic = true }))
        workers
  | Partitioned { partitions; inner } ->
      Printf.sprintf "partitioned x%d (%s)" partitions (mode_label inner)

module Make (P : Platform_intf.S) (S : Psmr_app.Service_intf.S) = struct
  module Net = Psmr_net.Network.Make (P)
  module Ab = Psmr_broadcast.Abcast.Make (P)
  module Part = Psmr_broadcast.Partition.Make (P)
  module Latch = Latch.Make (P)
  module MB = Mailbox.Make (P)

  type envelope = { client : int; rid : int; cmd : S.command }

  type wire =
    | Proto of envelope Psmr_broadcast.Abcast.message
    | PProto of envelope Psmr_broadcast.Partition.wire
        (** partitioned-mode peer traffic, tagged with its partition *)
    | Reply of { rid : int; resp : S.response; replica : int }
    | Tick
    | Client_timeout of { rid : int; attempt : int }
    | Snapshot_request of { have_seq : int }
        (** a stalled replica asking for a state snapshot *)
    | Snapshot of { state : string; rids : (int * int) list; seq : int }
        (** service state + at-most-once table, cut at batch [seq] *)

  (* The COS sees envelopes; conflicts and footprints come from the
     service's relation. *)
  module Env_cmd = struct
    type t = envelope

    let conflict a b = S.conflict a.cmd b.cmd
    let footprint e = S.footprint e.cmd
    let pp ppf e = Format.fprintf ppf "c%d/r%d" e.client e.rid
  end

  (* --- executors --- *)

  type executor = {
    exec_submit : envelope -> unit;
    exec_submit_batch : envelope array -> unit;
        (* same as submitting each, but one synchronization round *)
    exec_drain : unit -> unit;  (* wait until everything submitted executed *)
    exec_shutdown : unit -> unit;
    exec_executed : unit -> int;
  }

  (* Reply cache: a bounded per-client window of recent responses, enough to
     replay any request of a retried client batch (clients wait for a whole
     batch before sending the next, so a window larger than one batch
     suffices). *)
  let cache_window = 128

  let cache_store cache client rid resp =
    let inner =
      match Hashtbl.find_opt cache client with
      | Some h -> h
      | None ->
          let h = Hashtbl.create 16 in
          Hashtbl.replace cache client h;
          h
    in
    Hashtbl.replace inner rid resp;
    if Hashtbl.length inner > 2 * cache_window then
      Hashtbl.filter_map_inplace
        (fun r v -> if r <= rid - cache_window then None else Some v)
        inner

  let cache_find cache client rid =
    match Hashtbl.find_opt cache client with
    | None -> None
    | Some inner -> Hashtbl.find_opt inner rid

  (* The per-replica execute-and-reply path shared by every executor:
     deterministic service execution, reply to the client, and the
     at-most-once cache update. *)
  let make_apply ~replica_id ~service ~net ~cache ~cache_mutex =
    let apply (e : envelope) =
      let resp = S.execute service e.cmd in
      P.Mutex.lock cache_mutex;
      cache_store cache e.client e.rid resp;
      P.Mutex.unlock cache_mutex;
      Net.send net ~src:replica_id ~dst:e.client
        (Reply { rid = e.rid; resp; replica = replica_id })
    in
    apply

  let sequential_executor ~apply =
    let executed = P.Atomic.make 0 in
    let submit e =
      (* Same dispatch->executed accounting as the parallel scheduler's
         worker loop, so latency histograms are comparable across modes. *)
      let t0 = Psmr_obs.Probe.now () in
      apply e;
      Psmr_obs.Probe.exec_latency (Psmr_obs.Probe.now () -. t0);
      ignore (P.Atomic.fetch_and_add executed 1 : int)
    in
    {
      exec_submit = submit;
      exec_submit_batch = (fun es -> Array.iter submit es);
      exec_drain = (fun () -> ());
      exec_shutdown = (fun () -> ());
      exec_executed = (fun () -> P.Atomic.get executed);
    }

  (* Any registry backend — a COS behind the scheduler runtime, or the
     class-map dispatcher — behind the executor record.  The replica
     delivers in final order only, so there is nothing to speculate on:
     every backend takes the conservative feed, delivered batches go
     through [submit_batch], and the workers run the shared [apply], which
     executes, caches and replies. *)
  let backend_executor ~backend ~workers ~max_size ~apply =
    let (module B : Psmr_sched.Sched_intf.BACKEND with type cmd = envelope) =
      Psmr_early.Registry.instantiate backend (module P) (module Env_cmd)
    in
    let b = B.start ?max_size ~workers ~execute:apply () in
    {
      exec_submit = B.submit b;
      exec_submit_batch = B.submit_batch b;
      exec_drain = (fun () -> B.drain b);
      exec_shutdown = (fun () -> B.shutdown b);
      exec_executed = (fun () -> B.executed b);
    }

  (* --- replica --- *)

  (* Work items for the parallelizer thread.  Snapshot operations ride the
     same queue so they are totally ordered with deliveries. *)
  type apply_item =
    | Apply of envelope array * int  (* batch and its sequence number *)
    | Take_snapshot of (string * (int * int) list * int -> unit)
        (* callback receives (service state, at-most-once table, seq) *)
    | Install_snapshot of { state : string; rids : (int * int) list; seq : int }

  (* The ordering stack behind a replica: one global sequencer, or N
     per-partition sequencers folded through the deterministic merge. *)
  type ordering =
    | Single_ab of envelope Ab.t
    | Part_ab of envelope Part.t

  type replica = {
    id : int;
    ord : ordering;
    executor : executor;
    stopped : bool P.Atomic.t;
    delivered_commands : int P.Atomic.t;
    apply_box : apply_item MB.t;
        (* delivered batches queued for the parallelizer thread *)
    run_applier : unit -> unit;
    flush_emitted : unit -> unit;
        (* partitioned mode: hand merged commands accumulated during the
           last protocol call to the applier as one batch (no-op else) *)
    handle_snapshot_msg : src:int -> wire -> unit;
        (* Snapshot_request / Snapshot handling (protocol thread) *)
    check_stall : unit -> unit;
        (* request a snapshot if the log has an unrecoverable gap *)
  }

  (* --- client --- *)

  type client = {
    c_id : int;
    c_net : wire Net.t;
    c_replicas : int;
    c_timeout : float;
    mutable c_rid : int;
    mutable c_target : int;
    mutable c_retries : int;
  }

  let make_client ~net ~replicas ~timeout id =
    {
      c_id = id;
      c_net = net;
      c_replicas = replicas;
      c_timeout = timeout;
      c_rid = 0;
      c_target = 0;
      c_retries = 0;
    }

  let client_retries c = c.c_retries

  (* Synchronous batched call (BFT-SMaRt-style client batching, §7.1): send
     all commands in one request message and wait for the first reply to
     each, failing over to the next replica on timeout.  Returns [None] only
     when the network is shut down. *)
  let call_batch c cmds =
    let k = Array.length cmds in
    if k = 0 then invalid_arg "Replica.call_batch: empty batch";
    let base = c.c_rid in
    c.c_rid <- c.c_rid + k;
    let envelopes =
      Array.mapi (fun i cmd -> { client = c.c_id; rid = base + 1 + i; cmd }) cmds
    in
    let marker = base + k in
    (* Bounded exponential backoff on retries: the first attempt uses the
       configured timeout unchanged; each failover doubles it up to 16x, so a
       crashed or recovering system is probed progressively more gently
       instead of being hammered at a fixed cadence. *)
    let send_attempt attempt =
      Net.send c.c_net ~src:c.c_id ~dst:c.c_target
        (Proto (Psmr_broadcast.Abcast.Request envelopes));
      let wait = c.c_timeout *. float_of_int (1 lsl min attempt 4) in
      P.after wait (fun () ->
          Net.send c.c_net ~src:c.c_id ~dst:c.c_id
            (Client_timeout { rid = marker; attempt }))
    in
    send_attempt 0;
    let responses = Array.make k None in
    let missing = ref k in
    let rec await attempt =
      if !missing = 0 then
        Some (Array.map (fun r -> Option.get r) responses)
      else
        match Net.recv c.c_net c.c_id with
        | None -> None
        | Some { payload = Reply { rid; resp; replica = _ }; _ }
          when rid > base && rid <= base + k ->
            let i = rid - base - 1 in
            if responses.(i) = None then begin
              responses.(i) <- Some resp;
              decr missing
            end;
            await attempt
        | Some { payload = Client_timeout { rid = r; attempt = a }; _ }
          when r = marker && a = attempt ->
            c.c_retries <- c.c_retries + 1;
            c.c_target <- (c.c_target + 1) mod c.c_replicas;
            send_attempt (attempt + 1);
            await (attempt + 1)
        | Some _ -> await attempt (* stale reply or stale timeout *)
    in
    await 0

  let call c cmd =
    match call_batch c [| cmd |] with
    | Some [| resp |] -> Some resp
    | Some _ -> assert false
    | None -> None

  (* --- deployment --- *)

  module Deployment = struct
    type config = {
      replicas : int;
      clients : int;
      mode : mode;
      cos_max_size : int option;
      abcast : Psmr_broadcast.Abcast.config;
      tick_interval : float;
      client_timeout : float;
      latency : src:int -> dst:int -> float;
      make_service : int -> S.t;  (** fresh service state for replica [i] *)
      opt_execute :
        (S.t -> S.command -> S.response * (unit -> unit)) option;
          (** Unused: an execute-with-undo hook, which no mode needs —
              the deployment delivers in final order, so
              {!Parallel_early_opt} shares the conservative executor of
              {!Parallel_early} and never rolls back. *)
    }

    let default_config ~make_service () =
      {
        replicas = 3;
        clients = 1;
        mode = Sequential;
        cos_max_size = None;
        abcast = Psmr_broadcast.Abcast.default_config;
        tick_interval = 1e-3;
        client_timeout = 0.5;
        latency = (fun ~src:_ ~dst:_ -> 0.0);
        make_service;
        opt_execute = None;
      }

    type t = {
      cfg : config;
      net : wire Net.t;
      replica_handles : replica array;
      all_joined : Latch.t;
    }

    let client_addr t i = t.cfg.replicas + i

    let create (cfg : config) =
      if cfg.replicas < 3 || cfg.replicas mod 2 = 0 then
        invalid_arg "Deployment: replicas must be odd and >= 3";
      if cfg.clients < 0 then invalid_arg "Deployment: negative clients";
      (match cfg.mode with
      | Partitioned { partitions; inner } ->
          if partitions <= 0 then
            invalid_arg "Deployment: partitions must be > 0";
          (match inner with
          | Partitioned _ -> invalid_arg "Deployment: nested Partitioned mode"
          | _ -> ())
      | _ -> ());
      let net =
        Net.create ~latency:cfg.latency ~nodes:(cfg.replicas + cfg.clients) ()
      in
      (* Two threads of control per replica: the protocol loop and the
         parallelizer. *)
      let all_joined = Latch.create (2 * cfg.replicas) in
      let replica_handles =
        Array.init cfg.replicas (fun id ->
            let service = cfg.make_service id in
            let cache : (int, (int, S.response) Hashtbl.t) Hashtbl.t =
              Hashtbl.create 64
            in
            let cache_mutex = P.Mutex.create () in
            let seen_rid : (int, int) Hashtbl.t = Hashtbl.create 64 in
            let apply =
              make_apply ~replica_id:id ~service ~net ~cache ~cache_mutex
            in
            (* Partitioning changes ordering, not execution: the executor
               comes from the inner mode. *)
            let rec exec_mode = function
              | Partitioned { inner; _ } -> exec_mode inner
              | m -> m
            in
            let executor =
              match exec_mode cfg.mode with
              | Partitioned _ -> assert false (* exec_mode unwraps these *)
              | Sequential -> sequential_executor ~apply
              | Parallel { impl; workers } ->
                  backend_executor ~backend:(Psmr_early.Registry.Cos impl)
                    ~workers
                    ~max_size:cfg.cos_max_size ~apply
              | Parallel_early { workers; classes }
              | Parallel_early_opt { workers; classes } ->
                  backend_executor
                    ~backend:
                      (Psmr_early.Registry.Early
                         { classes; optimistic = false })
                    ~workers ~max_size:cfg.cos_max_size ~apply
            in
            let delivered_commands = P.Atomic.make 0 in
            (* The parallelizer stage (Figure 1b) is its own thread: the
               protocol loop only enqueues delivered commands, so a full COS
               back-pressures the scheduler without stalling acknowledgements
               and heartbeats. *)
            let apply_box = MB.create () in
            (* Batches arrive densely in sequence order, so the protocol
               thread can number them locally; snapshot installation jumps
               the counter. *)
            let next_seq = ref 0 in
            let ord, flush_emitted =
              match cfg.mode with
              | Partitioned { partitions; _ } ->
                  (* Merged commands accumulate while a protocol call runs
                     (the merge emits from within handle/tick); the event
                     loop flushes them afterwards as one batch, so the
                     executor keeps its batch amortization. *)
                  let pending_emit : envelope Psmr_util.Vec.t =
                    Psmr_util.Vec.create ()
                  in
                  let pab =
                    Part.create ~config:cfg.abcast ~partitions ~id
                      ~n:cfg.replicas
                      ~send:(fun dst w -> Net.send net ~src:id ~dst (PProto w))
                      ~deliver:(fun em ->
                        ignore
                          (P.Atomic.fetch_and_add delivered_commands 1 : int);
                        Psmr_util.Vec.push pending_emit
                          em.Psmr_broadcast.Pmerge.cmd)
                      ()
                  in
                  let flush () =
                    if Psmr_util.Vec.length pending_emit > 0 then begin
                      let batch = Psmr_util.Vec.to_array pending_emit in
                      Psmr_util.Vec.clear pending_emit;
                      let seq = !next_seq in
                      incr next_seq;
                      ignore (MB.put apply_box (Apply (batch, seq)) : bool)
                    end
                  in
                  (Part_ab pab, flush)
              | _ ->
                  let ab =
                    Ab.create ~config:cfg.abcast ~id ~n:cfg.replicas
                      ~send:(fun dst msg ->
                        Net.send net ~src:id ~dst (Proto msg))
                      ~deliver:(fun batch ->
                        ignore
                          (P.Atomic.fetch_and_add delivered_commands
                             (Array.length batch)
                            : int);
                        let seq = !next_seq in
                        incr next_seq;
                        ignore (MB.put apply_box (Apply (batch, seq)) : bool))
                      ()
                  in
                  (Single_ab ab, fun () -> ())
            in
            (* Duplicate suppression happens before scheduling: a retried
               request whose original is still in flight is dropped (the
               original will reply); one already executed gets the cached
               reply replayed.  Returns whether the envelope is fresh and
               should be scheduled.

               Under a single sequencer the delivery order preserves each
               client's rid order, so the monotonic high-water mark in
               [seen_rid] is an exact duplicate test.  The partitioned
               merge only preserves {e per-partition} order: a client's
               consecutive requests landing on different partitions can
               reach the executor with rids inverted, so partitioned mode
               keeps the recent-rid {e set} per client (pruned to the same
               window as the reply cache — closed-loop clients never have
               more than one batch in flight, so anything below the window
               is necessarily an old retry). *)
            let seen_rid_set : (int, (int, unit) Hashtbl.t) Hashtbl.t =
              Hashtbl.create 64
            in
            let screen_one (e : envelope) =
              (* Per-command protocol processing (deserialization, reply
                 envelope) — the CPU share the ordering stack takes on the
                 replica, visible only under the simulated cost model. *)
              P.work Marshal;
              let dup =
                match ord with
                | Single_ab _ -> (
                    match Hashtbl.find_opt seen_rid e.client with
                    | Some last when e.rid <= last -> true
                    | Some _ | None -> false)
                | Part_ab _ ->
                    let set =
                      match Hashtbl.find_opt seen_rid_set e.client with
                      | Some s -> s
                      | None ->
                          let s = Hashtbl.create 16 in
                          Hashtbl.replace seen_rid_set e.client s;
                          s
                    in
                    let last =
                      Option.value
                        (Hashtbl.find_opt seen_rid e.client)
                        ~default:(-1)
                    in
                    if e.rid <= last - cache_window || Hashtbl.mem set e.rid
                    then true
                    else begin
                      Hashtbl.replace set e.rid ();
                      if Hashtbl.length set > 2 * cache_window then
                        Hashtbl.filter_map_inplace
                          (fun r v ->
                            if r <= max last e.rid - cache_window then None
                            else Some v)
                          set;
                      false
                    end
              in
              if dup then begin
                P.Mutex.lock cache_mutex;
                let cached = cache_find cache e.client e.rid in
                P.Mutex.unlock cache_mutex;
                (match cached with
                | Some resp ->
                    Net.send net ~src:id ~dst:e.client
                      (Reply { rid = e.rid; resp; replica = id })
                | None -> ());
                false
              end
              else begin
                (* Keep the per-client high-water mark a max: in
                   partitioned mode a fresh rid can arrive below it. *)
                (match Hashtbl.find_opt seen_rid e.client with
                | Some last when last >= e.rid -> ()
                | Some _ | None -> Hashtbl.replace seen_rid e.client e.rid);
                true
              end
            in
            (* The delivered batch reaches the executor as one batch (minus
               duplicates), so the COS can amortize per-command
               synchronization over it. *)
            let apply_batch (batch : envelope array) =
              let fresh = Array.to_list batch |> List.filter screen_one in
              match fresh with
              | [] -> ()
              | [ e ] -> executor.exec_submit e
              | es -> executor.exec_submit_batch (Array.of_list es)
            in
            let last_applied_seq = ref (-1) in
            let run_applier () =
              let rec loop () =
                match MB.take apply_box with
                | None -> executor.exec_shutdown ()
                | Some (Apply (batch, seq)) ->
                    apply_batch batch;
                    last_applied_seq := seq;
                    loop ()
                | Some (Take_snapshot reply) ->
                    (* Quiesce the executor so the snapshot is a clean cut
                       at [last_applied_seq]. *)
                    executor.exec_drain ();
                    let rids =
                      Hashtbl.fold (fun c r acc -> (c, r) :: acc) seen_rid []
                    in
                    reply (S.snapshot service, rids, !last_applied_seq);
                    loop ()
                | Some (Install_snapshot { state; rids; seq }) ->
                    executor.exec_drain ();
                    S.restore service state;
                    Hashtbl.reset seen_rid;
                    List.iter (fun (c, r) -> Hashtbl.replace seen_rid c r) rids;
                    P.Mutex.lock cache_mutex;
                    Hashtbl.reset cache;
                    P.Mutex.unlock cache_mutex;
                    last_applied_seq := seq;
                    loop ()
              in
              loop ()
            in
            (* Snapshot-based catch-up exists only in single-sequencer mode;
               partitioned replicas recover through per-partition log
               transfer (a state snapshot cut across P merge streams would
               need a vector of partition sequence numbers — future work,
               see docs/PARTITIONING.md). *)
            let handle_snapshot_msg ~src payload =
              match (ord, payload) with
              | Part_ab _, _ -> ()
              | Single_ab ab, Snapshot_request { have_seq } ->
                  if Ab.delivered_seq ab > have_seq then
                    ignore
                      (MB.put apply_box
                         (Take_snapshot
                            (fun (state, rids, seq) ->
                              Net.send net ~src:id ~dst:src
                                (Snapshot { state; rids; seq })))
                        : bool)
              | Single_ab ab, Snapshot { state; rids; seq } ->
                  if seq > Ab.delivered_seq ab then begin
                    Ab.install_snapshot ab ~seq;
                    next_seq := seq + 1;
                    ignore
                      (MB.put apply_box (Install_snapshot { state; rids; seq })
                        : bool)
                  end
              | Single_ab _, (Proto _ | PProto _ | Reply _ | Tick
                             | Client_timeout _) ->
                  ()
            in
            let last_request = ref neg_infinity in
            let check_stall () =
              match ord with
              | Part_ab _ -> ()
              | Single_ab ab ->
                  if Ab.is_stalled ab then begin
                    let now = P.now () in
                    if
                      now -. !last_request
                      > 2.0 *. cfg.abcast.election_timeout
                    then begin
                      last_request := now;
                      let have_seq = Ab.delivered_seq ab in
                      for dst = 0 to cfg.replicas - 1 do
                        if dst <> id then
                          Net.send net ~src:id ~dst
                            (Snapshot_request { have_seq })
                      done
                    end
                  end
            in
            {
              id;
              ord;
              executor;
              stopped = P.Atomic.make false;
              delivered_commands;
              apply_box;
              run_applier;
              flush_emitted;
              handle_snapshot_msg;
              check_stall;
            })
      in
      { cfg; net; replica_handles; all_joined }

    let start t =
      Array.iter
        (fun r ->
          (* Protocol event loop. *)
          P.spawn ~name:(Printf.sprintf "replica-%d" r.id) (fun () ->
              let rec loop () =
                match Net.recv t.net r.id with
                | None ->
                    P.Atomic.set r.stopped true;
                    MB.close r.apply_box;
                    Latch.count_down t.all_joined
                | Some { src; payload; _ } -> (
                    (match (payload, r.ord) with
                    | Proto (Psmr_broadcast.Abcast.Request envs), Part_ab pab
                      ->
                        (* Client traffic: route each command to its
                           partition(s) by footprint. *)
                        Array.iter
                          (fun (e : envelope) ->
                            Part.submit pab ~footprint:(S.footprint e.cmd) e)
                          envs
                    | Proto m, Single_ab ab -> Ab.handle ab ~src m
                    | Proto _, Part_ab _ -> ()
                    | PProto w, Part_ab pab -> Part.handle pab ~src w
                    | PProto _, Single_ab _ -> ()
                    | Tick, Single_ab ab -> Ab.tick ab
                    | Tick, Part_ab pab -> Part.tick pab
                    | (Snapshot_request _ | Snapshot _), _ ->
                        r.handle_snapshot_msg ~src payload
                    | (Reply _ | Client_timeout _), _ -> ());
                    r.flush_emitted ();
                    r.check_stall ();
                    loop ())
              in
              loop ());
          (* Parallelizer: drains delivered commands into the executor. *)
          P.spawn ~name:(Printf.sprintf "applier-%d" r.id) (fun () ->
              r.run_applier ();
              Latch.count_down t.all_joined);
          (* Timer: self-addressed ticks keep protocol timing inside the
             single replica thread. *)
          P.spawn ~name:(Printf.sprintf "ticker-%d" r.id) (fun () ->
              let rec tick_loop () =
                if not (P.Atomic.get r.stopped) then begin
                  P.sleep t.cfg.tick_interval;
                  Net.send t.net ~src:r.id ~dst:r.id Tick;
                  tick_loop ()
                end
              in
              tick_loop ()))
        t.replica_handles

    let client t i =
      if i < 0 || i >= t.cfg.clients then invalid_arg "Deployment.client";
      make_client ~net:t.net ~replicas:t.cfg.replicas
        ~timeout:t.cfg.client_timeout (client_addr t i)

    let crash_replica t id =
      if id < 0 || id >= t.cfg.replicas then
        invalid_arg "Deployment.crash_replica";
      Net.crash t.net id

    let replica_view t id =
      match t.replica_handles.(id).ord with
      | Single_ab ab -> Ab.view ab
      | Part_ab pab -> Part.view pab ~part:0

    let replica_partition_leader t id ~part =
      match t.replica_handles.(id).ord with
      | Single_ab _ ->
          invalid_arg "Deployment.replica_partition_leader: not partitioned"
      | Part_ab pab -> Part.leader pab ~part

    let replica_merge_pending t id =
      match t.replica_handles.(id).ord with
      | Single_ab _ -> 0
      | Part_ab pab -> Part.merge_pending pab

    let replica_crosses t id =
      match t.replica_handles.(id).ord with
      | Single_ab _ -> 0
      | Part_ab pab -> Part.crosses pab

    let replica_holes t id =
      match t.replica_handles.(id).ord with
      | Single_ab _ -> 0
      | Part_ab pab -> Part.holes pab
    let replica_delivered t id = P.Atomic.get t.replica_handles.(id).delivered_commands
    let replica_executed t id = t.replica_handles.(id).executor.exec_executed ()
    let network t = t.net

    (* Stop every replica (and thus their tickers) and wait for the loops to
       exit.  Crashed replicas are already counted down. *)
    let shutdown t =
      Net.shutdown t.net;
      Latch.wait t.all_joined
  end
end
