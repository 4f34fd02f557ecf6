(** Replicated state machines over atomic broadcast — the deployment layer
    corresponding to the paper's BFT-SMaRt testbed (Figure 1).

    [Make (P) (S)] assembles, for a service [S] on platform [P]:

    - the wire protocol: broadcast messages, client requests, replies and
      the self-addressed timer ticks that keep each replica single-threaded;
    - replicas: an event loop feeding one ordering stack for every mode,
      {!Psmr_broadcast.Partition} (one {!Psmr_broadcast.Abcast} sequencer
      per partition folded through the deterministic merge; a bare
      execution mode is one partition), an {e executor} that runs the
      merged commands — either sequentially
      (classical SMR) or through a scheduling backend with worker threads
      (parallel SMR) — and an at-most-once table whose per-command
      response slots, filled by the executing worker, replay the reply to
      a retried request;
    - snapshot catch-up: a replica stalled behind a truncated log installs
      a peer's cut of the merged stream (each partition's delivered seq,
      the merge state, the service state and the duplicate screening);
    - closed-loop clients that submit a batch per [call_batch], routed by
      partition: each command goes to the replica believed to lead every
      partition it touches;
    - notice-first failover: a replica that becomes the leader of a view
      announces its leader hints to every client, and a client resends
      what it had sent under the older view at once, so a leader crash
      costs the view change, not the client timeout.  The timeout stays
      as the fallback (a lost notice, a new leader that crashed in turn):
      a partition whose commands time out fails over to the next replica;
    - {!Deployment}: wiring n replicas and m clients over a
      {!Psmr_net.Network} with a configurable latency model.

    Everything is platform-generic: the test suite runs deployments on real
    threads, the benchmark harness runs the very same code under the
    discrete-event simulator. *)

open Psmr_platform

type mode =
  | Sequential  (** classical SMR: execute in delivery order, one at a time *)
  | Parallel of { impl : Psmr_early.Registry.impl; workers : int }
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

module Make (P : Platform_intf.S) (S : Psmr_app.Service_intf.S) = struct
  module Net = Psmr_net.Network.Make (P)
  module Part = Psmr_broadcast.Partition.Make (P)
  module Latch = Latch.Make (P)
  module MB = Mailbox.Make (P)

  type envelope = { client : int; rid : int; cmd : S.command }
  type hint = { view : int; leader : int }

  type wire =
    | Order of envelope Psmr_broadcast.Partition.wire
        (** ordering traffic, tagged with its partition *)
    | Reply of {
        rid : int;
        resp : S.response;
        replica : int;
        leaders : hint array;
            (** the replying replica's hint per partition, adopted by the
                client *)
      }
    | Leaders of hint array
        (** a new leader's hints, announced to every client *)
    | Tick
    | Client_timeout of { rid : int; attempt : int }
    | Snapshot_request of { have : int array }
        (** a stalled replica asking for a snapshot past its delivered seq
            per partition *)
    | Snapshot of {
        state : string;
        seen : (int * int * int list) list;
        cut : envelope Psmr_broadcast.Partition.cut;
      }
        (** service state and duplicate screening at an ordering cut *)

  (* What the executor runs: a fresh command and the response slot its
     worker fills.  The slot is the replica's own; the envelope is shared
     wire data and never carries it. *)
  type job = { env : envelope; slot : S.response option P.Atomic.t }

  (* The COS sees jobs; conflicts and footprints come from the service's
     relation. *)
  module Job_cmd = struct
    type t = job

    let conflict a b = S.conflict a.env.cmd b.env.cmd
    let footprint j = S.footprint j.env.cmd
    let pp ppf j = Format.fprintf ppf "c%d/r%d" j.env.client j.env.rid
  end

  (* --- executors --- *)

  type executor = {
    exec_submit : job -> unit;
    exec_submit_batch : job array -> unit;
        (* same as submitting each, but one synchronization round *)
    exec_drain : unit -> unit;  (* wait until everything submitted executed *)
    exec_shutdown : unit -> unit;
    exec_executed : unit -> int;
  }

  (* The at-most-once window: duplicate screening keeps a client's rids
     within [window] below its highest, each with its response slot,
     enough to replay any request of a retried client batch (clients wait
     for a whole batch before sending the next, and [call_batch] keeps a
     batch within the window). *)
  let window = 128

  (* A client's duplicate-screening state at a replica: its highest
     screened rid and the rids screened within [window] below it, each
     with the slot its worker fills ([None] while in flight). *)
  type seen = {
    mutable high : int;
    recent : (int, S.response option P.Atomic.t) Hashtbl.t;
  }

  let send_reply ~replica_id ~net ~leaders (e : envelope) resp =
    Net.send net ~src:replica_id ~dst:e.client
      (Reply { rid = e.rid; resp; replica = replica_id; leaders = !leaders })

  (* The per-replica execute-and-reply path shared by every executor, run
     by the executing worker (by the applier in [Sequential] mode): the
     per-command protocol work (deserializing the body, building the reply
     envelope), deterministic service execution, the response published
     in the command's slot, and the reply to the client. *)
  let make_apply ~replica_id ~service ~net ~leaders { env = e; slot } =
    P.work Marshal;
    let resp = S.execute service e.cmd in
    P.Atomic.set slot (Some resp);
    send_reply ~replica_id ~net ~leaders e resp

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
     executes, fills the slot and replies. *)
  let backend_executor ~backend ~workers ~apply =
    let (module B : Psmr_sched.Sched_intf.BACKEND with type cmd = job) =
      Psmr_early.Registry.instantiate backend (module P) (module Job_cmd)
    in
    let b = B.start ~workers ~execute:apply () in
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
    | Apply of envelope array  (* the commands one protocol call merged *)
    | Take_snapshot of (string -> (int * int * int list) list -> unit)
        (* callback receives the service state and the screening table *)
    | Install_snapshot of { state : string; seen : (int * int * int list) list }

  type replica = {
    id : int;
    ord : envelope Part.t;
        (* the ordering stack: one sequencer per partition (one in all for
           a bare execution mode) folded through the merge *)
    executor : executor;
    stopped : bool P.Atomic.t;
    delivered_commands : int P.Atomic.t;
    apply_box : apply_item MB.t;
        (* merged batches queued for the parallelizer thread *)
    run_applier : unit -> unit;
    handle : src:int -> wire -> unit;  (* one protocol call *)
  }

  (* --- client --- *)

  type client = {
    c_id : int;
    c_net : wire Net.t;
    c_replicas : int;
    c_timeout : float;
    c_targets : int array;  (* per partition: the replica believed to lead it *)
    c_views : int array;
        (* per partition: the newest view a hint showed; an older view's
           hint never moves a target back *)
    mutable c_rid : int;
    mutable c_retries : int;
  }

  let make_client ~net ~replicas ~partitions ~timeout id =
    {
      c_id = id;
      c_net = net;
      c_replicas = replicas;
      c_timeout = timeout;
      c_targets =
        Array.init partitions (Psmr_broadcast.Partition.initial_leader ~n:replicas);
      c_views = Array.make partitions 0;
      c_rid = 0;
      c_retries = 0;
    }

  let client_retries c = c.c_retries

  (* Adopt each partition's hint unless a newer view is already known. *)
  let adopt c (hints : hint array) =
    Array.iteri
      (fun p { view; leader } ->
        if view >= c.c_views.(p) then begin
          c.c_views.(p) <- view;
          c.c_targets.(p) <- leader
        end)
      hints

  let envelope_of = function
    | Psmr_broadcast.Pmerge.Single e | Cross { cmd = e; _ } -> e

  (* Synchronous batched call (BFT-SMaRt-style client batching, §7.1):
     bucket the commands by partition ({!Psmr_broadcast.Partition.entries};
     a cross-partition command becomes one [Cross] entry under the
     client's own uid, in every partition it touches), send each
     partition's entries in one request straight to its target, and wait
     for the first reply to each command.  Replies and leader notices carry
     hints.  When a notice arrives, each partition with unanswered
     commands sent under an older view than the client now knows is
     resent at once to that view's leader, uids unchanged, as a fresh
     attempt (the pending timer goes stale): a leg lost with a crashed
     leader heals at view install, and only the partitions whose view
     moved are resent.  On timeout, the fallback when no notice comes,
     the partitions with unanswered commands fail over to the next
     replica and get their entries resent, and the merge drops the legs
     that were not lost.  A timed-out cross command cannot tell which of
     its legs was lost, so every partition it touches rotates; a reply's
     hints then put a healthy partition that rotated along back on its
     leader.  Returns [None] only when the network is shut down. *)
  let call_batch c cmds =
    let k = Array.length cmds in
    if k = 0 then invalid_arg "Replica.call_batch: empty batch";
    if k > window then
      invalid_arg "Replica.call_batch: batch exceeds the at-most-once window";
    let base = c.c_rid in
    c.c_rid <- c.c_rid + k;
    let envelopes =
      Array.mapi (fun i cmd -> { client = c.c_id; rid = base + 1 + i; cmd }) cmds
    in
    let marker = base + k in
    let slices =
      Psmr_broadcast.Partition.entries
        ~partitions:(Array.length c.c_targets)
        ~footprint:(fun (e : envelope) -> S.footprint e.cmd)
        ~uid:(fun (e : envelope) ->
          Psmr_broadcast.Pmerge.uid ~origin:c.c_id ~seq:e.rid)
        envelopes
    in
    let responses = Array.make k None in
    let missing = ref k in
    let unanswered =
      Array.exists (fun en ->
          responses.((envelope_of en).rid - base - 1) = None)
    in
    (* The view each partition's entries were last sent under. *)
    let sent_view = Array.make (Array.length slices) 0 in
    let send p slice =
      sent_view.(p) <- c.c_views.(p);
      Net.send c.c_net ~src:c.c_id ~dst:c.c_targets.(p)
        (Order { part = p; msg = Psmr_broadcast.Abcast.Request slice })
    in
    (* Resend each partition that [pick] selects and that has unanswered
       commands, first moving its target on when [rotate]; true if any
       was resent. *)
    let resend ~rotate pick =
      let any = ref false in
      Array.iteri
        (fun p slice ->
          if Array.length slice > 0 && unanswered slice && pick p then begin
            if rotate then
              c.c_targets.(p) <- (c.c_targets.(p) + 1) mod c.c_replicas;
            send p slice;
            any := true
          end)
        slices;
      !any
    in
    (* Bounded exponential backoff on timeouts: the first wait is the
       configured timeout; each timeout doubles it up to 16x, so a crashed
       or recovering system is probed progressively more gently instead of
       being hammered at a fixed cadence. *)
    let timeouts = ref 0 in
    let arm attempt =
      let wait = c.c_timeout *. float_of_int (1 lsl min !timeouts 4) in
      P.after wait (fun () ->
          Net.send c.c_net ~src:c.c_id ~dst:c.c_id
            (Client_timeout { rid = marker; attempt }))
    in
    ignore (resend ~rotate:false (fun _ -> true) : bool);
    arm 0;
    let rec await attempt =
      if !missing = 0 then
        Some (Array.map (fun r -> Option.get r) responses)
      else
        match Net.recv c.c_net c.c_id with
        | None -> None
        | Some { payload = Reply { rid; resp; leaders; _ }; _ }
          when rid > base && rid <= base + k ->
            let i = rid - base - 1 in
            if responses.(i) = None then begin
              responses.(i) <- Some resp;
              decr missing
            end;
            adopt c leaders;
            await attempt
        | Some { payload = Leaders leaders; _ } ->
            adopt c leaders;
            if resend ~rotate:false (fun p -> c.c_views.(p) > sent_view.(p))
            then begin
              arm (attempt + 1);
              await (attempt + 1)
            end
            else await attempt
        | Some { payload = Client_timeout { rid = r; attempt = a }; _ }
          when r = marker && a = attempt ->
            c.c_retries <- c.c_retries + 1;
            incr timeouts;
            ignore (resend ~rotate:true (fun _ -> true) : bool);
            arm (attempt + 1);
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
        abcast = Psmr_broadcast.Abcast.default_config;
        tick_interval = 1e-3;
        client_timeout = 0.5;
        latency = (fun ~src:_ ~dst:_ -> 0.0);
        make_service;
        opt_execute = None;
      }

    type t = {
      cfg : config;
      partitions : int;
      net : wire Net.t;
      replica_handles : replica array;
      all_joined : Latch.t;
    }

    let client_addr t i = t.cfg.replicas + i

    (* The deployment's shape, reduced once from [mode]: its partition
       count (1 for a bare execution mode, whose one sequencer is
       partition 0) and its executor backend with its workers ([None]:
       sequential).  Partitioning changes ordering, not execution. *)
    let rec shape ?(partitions = 1) = function
      | Sequential -> (partitions, None)
      | Parallel { impl; workers } ->
          (partitions, Some (Psmr_early.Registry.Cos impl, workers))
      | Parallel_early { workers; classes }
      | Parallel_early_opt { workers; classes } ->
          ( partitions,
            Some
              (Psmr_early.Registry.Early { classes; optimistic = false }, workers)
          )
      | Partitioned { inner = Partitioned _; _ } ->
          invalid_arg "Deployment: nested Partitioned mode"
      | Partitioned { partitions; _ } when partitions <= 0 ->
          invalid_arg "Deployment: partitions must be > 0"
      | Partitioned { partitions; inner } -> shape ~partitions inner

    let create (cfg : config) =
      if cfg.replicas < 3 || cfg.replicas mod 2 = 0 then
        invalid_arg "Deployment: replicas must be odd and >= 3";
      if cfg.clients < 0 then invalid_arg "Deployment: negative clients";
      (* A client's cross-partition uids pack its address into 16 bits
         ({!Psmr_broadcast.Pmerge.uid}). *)
      if cfg.replicas + cfg.clients > 65536 then
        invalid_arg "Deployment: more than 65536 replicas and clients";
      let partitions, backend = shape cfg.mode in
      let net =
        Net.create ~latency:cfg.latency ~nodes:(cfg.replicas + cfg.clients) ()
      in
      (* Two threads of control per replica: the protocol loop and the
         parallelizer. *)
      let all_joined = Latch.create (2 * cfg.replicas) in
      let replica_handles =
        Array.init cfg.replicas (fun id ->
            let service = cfg.make_service id in
            (* Replies carry this replica's hint per partition; the
               protocol thread publishes a fresh array whenever a view
               moves, so the executor threads only ever read a complete
               one. *)
            let leaders = ref [||] in
            let apply = make_apply ~replica_id:id ~service ~net ~leaders in
            let executor =
              match backend with
              | None -> sequential_executor ~apply
              | Some (backend, workers) ->
                  backend_executor ~backend ~workers ~apply
            in
            let delivered_commands = P.Atomic.make 0 in
            (* The parallelizer stage (Figure 1b) is its own thread: the
               protocol loop only enqueues delivered commands, so a full COS
               back-pressures the scheduler without stalling acknowledgements
               and heartbeats. *)
            let apply_box = MB.create () in
            (* Merged commands accumulate while a protocol call runs (the
               merge emits from within handle/tick); [flush] hands them to
               the applier afterwards as one batch, so the executor keeps
               its batch amortization. *)
            let pending_emit : envelope Psmr_util.Vec.t =
              Psmr_util.Vec.create ()
            in
            let flush () =
              if Psmr_util.Vec.length pending_emit > 0 then begin
                let batch = Psmr_util.Vec.to_array pending_emit in
                Psmr_util.Vec.clear pending_emit;
                ignore
                  (P.Atomic.fetch_and_add delivered_commands (Array.length batch)
                    : int);
                ignore (MB.put apply_box (Apply batch) : bool)
              end
            in
            let ord =
              Part.create ~config:cfg.abcast ~partitions ~id ~n:cfg.replicas
                ~send:(fun dst w -> Net.send net ~src:id ~dst (Order w))
                ~deliver:(fun em ->
                  Psmr_util.Vec.push pending_emit em.Psmr_broadcast.Pmerge.cmd)
                ()
            in
            let hints () =
              Array.init partitions (fun part ->
                  { view = Part.view ord ~part; leader = Part.leader ord ~part })
            in
            leaders := hints ();
            let publish_leaders () =
              let old = !leaders in
              let rec moved part =
                part < partitions
                && (Part.view ord ~part <> old.(part).view || moved (part + 1))
              in
              if moved 0 then begin
                let fresh = hints () in
                leaders := fresh;
                if
                  Array.exists2
                    (fun o f -> f.leader = id && f.view > o.view)
                    old fresh
                then
                  for i = 0 to cfg.clients - 1 do
                    Net.send net ~src:id ~dst:(cfg.replicas + i)
                      (Leaders fresh)
                  done
              end
            in
            (* Duplicate suppression happens before scheduling, on the
               header alone (client, rid; the footprint is the COS's): a
               retried request whose slot is still empty is in flight and
               is dropped (the original will reply); one whose slot is
               filled gets that response replayed, the one reply the
               applier builds.  [screen_one] returns the job to schedule
               for a fresh envelope.

               The merge preserves each client's rid order only per
               partition: a client's consecutive requests landing on
               different partitions can reach the executor with rids
               inverted.  So each client keeps its highest screened rid
               and the set of rids screened within [window] below it.
               Closed-loop clients never have more than one batch in
               flight, so anything below the window is an old retry. *)
            let seen : (int, seen) Hashtbl.t = Hashtbl.create 64 in
            let screen_one (e : envelope) =
              let s =
                match Hashtbl.find_opt seen e.client with
                | Some s -> s
                | None ->
                    let s = { high = -1; recent = Hashtbl.create 16 } in
                    Hashtbl.replace seen e.client s;
                    s
              in
              match Hashtbl.find_opt s.recent e.rid with
              | Some slot ->
                  (match P.Atomic.get slot with
                  | Some resp ->
                      P.work Marshal;
                      send_reply ~replica_id:id ~net ~leaders e resp
                  | None -> ());
                  None
              | None when e.rid <= s.high - window -> None
              | None ->
                  let slot = P.Atomic.make None in
                  Hashtbl.replace s.recent e.rid slot;
                  s.high <- max s.high e.rid;
                  if Hashtbl.length s.recent > 2 * window then
                    Hashtbl.filter_map_inplace
                      (fun r v -> if r <= s.high - window then None else Some v)
                      s.recent;
                  Some { env = e; slot }
            in
            (* The merged batch reaches the executor as one batch (minus
               duplicates), so the COS can amortize per-command
               synchronization over it. *)
            let apply_batch (batch : envelope array) =
              let fresh = Array.to_list batch |> List.filter_map screen_one in
              match fresh with
              | [] -> ()
              | [ e ] -> executor.exec_submit e
              | es -> executor.exec_submit_batch (Array.of_list es)
            in
            let apply_item = function
              | Apply batch -> apply_batch batch
              | Take_snapshot reply ->
                  (* Quiesce the executor so the snapshot is a clean cut
                     after the last batch queued before it. *)
                  executor.exec_drain ();
                  reply (S.snapshot service)
                    (Hashtbl.fold
                       (fun c s acc ->
                         (c, s.high, List.of_seq (Hashtbl.to_seq_keys s.recent))
                         :: acc)
                       seen [])
              | Install_snapshot { state; seen = screened } ->
                  executor.exec_drain ();
                  S.restore service state;
                  (* Screened rids come back with empty slots: this
                     replica never ran them, so a retry of one is dropped
                     as if in flight; the replicas that ran them replied. *)
                  Hashtbl.reset seen;
                  List.iter
                    (fun (c, high, recent) ->
                      let s = { high; recent = Hashtbl.create 16 } in
                      List.iter
                        (fun r -> Hashtbl.replace s.recent r (P.Atomic.make None))
                        recent;
                      Hashtbl.replace seen c s)
                    screened
            in
            (* The applier drains its mailbox with one lock round per
               wake-up, as each network endpoint does, and runs the items
               in FIFO order: an applier that falls behind stops paying a
               lock round, and contending with the protocol thread's
               [put], per merged batch. *)
            let rec run_applier () =
              match MB.take_all apply_box with
              | None -> executor.exec_shutdown ()
              | Some items ->
                  Queue.iter apply_item items;
                  run_applier ()
            in
            let last_request = ref neg_infinity in
            let check_stall () =
              if Part.is_stalled ord then begin
                let now = P.now () in
                if now -. !last_request > 2.0 *. cfg.abcast.election_timeout
                then begin
                  last_request := now;
                  let have = Part.delivered ord in
                  for dst = 0 to cfg.replicas - 1 do
                    if dst <> id then
                      Net.send net ~src:id ~dst (Snapshot_request { have })
                  done
                end
              end
            in
            (* Snapshot catch-up, one cut for every deployment.  The
               protocol thread takes the ordering half (each partition's
               delivered seq and the merge's state, {!Part.cut}) between
               protocol calls, so every command the merge emitted before
               it is already queued for the applier, and queues the
               request behind them; the applier adds the service state and
               the duplicate screening.  A replica installs a cut only if
               it is at or past its own delivered seq in every partition.
               After each protocol call: publish the hints replies carry,
               hand what the call merged to the applier as one batch, and
               ask for a snapshot if a partition's log has a gap beyond
               log transfer. *)
            let handle ~src payload =
              (match payload with
              | Order w -> Part.handle ord ~src w
              | Tick -> Part.tick ord
              | Snapshot_request { have } ->
                  if Psmr_broadcast.Partition.supersedes (Part.delivered ord) have
                  then begin
                    let cut = Part.cut ord in
                    ignore
                      (MB.put apply_box
                         (Take_snapshot
                            (fun state seen ->
                              Net.send net ~src:id ~dst:src
                                (Snapshot { state; seen; cut })))
                        : bool)
                  end
              | Snapshot { state; seen; cut } ->
                  if Part.install_cut ord cut then
                    ignore
                      (MB.put apply_box (Install_snapshot { state; seen })
                        : bool)
              | Reply _ | Leaders _ | Client_timeout _ -> ());
              publish_leaders ();
              flush ();
              check_stall ()
            in
            {
              id;
              ord;
              executor;
              stopped = P.Atomic.make false;
              delivered_commands;
              apply_box;
              run_applier;
              handle;
            })
      in
      { cfg; partitions; net; replica_handles; all_joined }

    let crash_replica t id =
      if id < 0 || id >= t.cfg.replicas then
        invalid_arg "Deployment.crash_replica";
      Net.crash t.net id

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
                | Some { src; payload; _ } ->
                    r.handle ~src payload;
                    loop ()
              in
              loop ());
          (* Parallelizer: drains delivered commands into the executor. *)
          P.spawn ~name:(Printf.sprintf "applier-%d" r.id) (fun () ->
              r.run_applier ();
              Latch.count_down t.all_joined);
          (* Timer: self-addressed ticks keep protocol timing inside the
             single replica thread.  Each tick first polls the fault plan
             (one pointer read when none is armed): a replica crash that
             has come due crash-stops the replica through {!crash_replica}. *)
          P.spawn ~name:(Printf.sprintf "ticker-%d" r.id) (fun () ->
              let rec tick_loop () =
                if not (P.Atomic.get r.stopped) then begin
                  P.sleep t.cfg.tick_interval;
                  if Psmr_fault.Fault.replica ~id:r.id then crash_replica t r.id
                  else begin
                    Net.send t.net ~src:r.id ~dst:r.id Tick;
                    tick_loop ()
                  end
                end
              in
              tick_loop ()))
        t.replica_handles

    let client t i =
      if i < 0 || i >= t.cfg.clients then invalid_arg "Deployment.client";
      make_client ~net:t.net ~replicas:t.cfg.replicas ~partitions:t.partitions
        ~timeout:t.cfg.client_timeout (client_addr t i)

    let ord t id = t.replica_handles.(id).ord
    let replica_crashed t id = Net.is_crashed t.net id
    let replica_view ?(part = 0) t id = Part.view (ord t id) ~part
    let replica_partition_leader t id ~part = Part.leader (ord t id) ~part
    let replica_merge_pending t id = Part.merge_pending (ord t id)
    let replica_crosses t id = Part.crosses (ord t id)
    let replica_holes t id = Part.holes (ord t id)
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
