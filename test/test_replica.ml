(* End-to-end tests of the replicated deployments: sequential and parallel
   SMR over atomic broadcast, on real threads and on the simulator. *)

module RP = Psmr_platform.Real_platform

(* --- KV service deployments on real threads --- *)

module KV_smr = Psmr_replica.Replica.Make (RP) (Psmr_app.Kv_store)

let fast_abcast =
  {
    Psmr_broadcast.Abcast.batch_max = 16;
    batch_delay = 1e-3;
    heartbeat_interval = 5e-3;
    election_timeout = 100e-3;
    checkpoint_interval = 64;
  }

let kv_deployment ?(clients = 2) ?(mode = Psmr_replica.Replica.Sequential) () =
  let services = Array.make 3 None in
  let make_service id =
    let s = Psmr_app.Kv_store.create ~capacity:64 in
    services.(id) <- Some s;
    s
  in
  let cfg =
    {
      (KV_smr.Deployment.default_config ~make_service ()) with
      clients;
      mode;
      abcast = fast_abcast;
      tick_interval = 1e-3;
      client_timeout = 0.4;
    }
  in
  let d = KV_smr.Deployment.create cfg in
  KV_smr.Deployment.start d;
  (d, services)

let test_kv_roundtrip mode () =
  let d, _ = kv_deployment ~mode () in
  let c = KV_smr.Deployment.client d 0 in
  Alcotest.(check bool) "put" true (KV_smr.call c (Put (1, 10)) = Some Stored);
  Alcotest.(check bool) "get" true
    (KV_smr.call c (Get 1) = Some (Value (Some 10)));
  Alcotest.(check bool) "get empty" true
    (KV_smr.call c (Get 2) = Some (Value None));
  KV_smr.Deployment.shutdown d

let test_kv_replicas_converge mode () =
  let d, services = kv_deployment ~mode () in
  let c0 = KV_smr.Deployment.client d 0 in
  let c1 = KV_smr.Deployment.client d 1 in
  let t0 = Thread.create (fun () ->
      for i = 0 to 19 do
        ignore (KV_smr.call c0 (Put (i mod 8, i)) : _ option)
      done) () in
  let t1 = Thread.create (fun () ->
      for i = 0 to 19 do
        ignore (KV_smr.call c1 (Put (8 + (i mod 8), 100 + i)) : _ option)
      done) () in
  Thread.join t0;
  Thread.join t1;
  (* One more command from each client; once answered, all prior commands
     are executed at the answering replica.  Give stragglers a moment, then
     compare full state across replicas. *)
  ignore (KV_smr.call c0 (Get 0) : _ option);
  Thread.delay 0.2;
  let dump = function
    | Some s -> List.init 64 (fun k -> Psmr_app.Kv_store.execute s (Get k))
    | None -> Alcotest.fail "service not created"
  in
  let s0 = dump services.(0) in
  Alcotest.(check bool) "replica 1 equals replica 0" true (dump services.(1) = s0);
  Alcotest.(check bool) "replica 2 equals replica 0" true (dump services.(2) = s0);
  KV_smr.Deployment.shutdown d

(* --- leader crash and failover --- *)

let test_leader_crash_failover mode () =
  let d, _ = kv_deployment ~clients:1 ~mode () in
  let c = KV_smr.Deployment.client d 0 in
  Alcotest.(check bool) "before crash" true
    (KV_smr.call c (Put (0, 1)) = Some Stored);
  KV_smr.Deployment.crash_replica d 0;
  (* The next calls must succeed via the new leader.  A single-sequencer
     client sends the write to replica 0; the survivors' new leader
     announces itself when its view installs (100 ms election timeout),
     and the client resends there at once, before its 0.4 s timeout could
     fire: no retry.  The read goes straight to the new leader. *)
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "after crash: write" true
    (KV_smr.call c (Put (1, 2)) = Some Stored);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "after crash: no retry" 0 (KV_smr.client_retries c);
  if elapsed >= 0.4 then
    Alcotest.failf "after crash: write took %.3f s, past the client timeout"
      elapsed;
  Alcotest.(check bool) "after crash: read" true
    (KV_smr.call c (Get 1) = Some (Value (Some 2)));
  Alcotest.(check int) "after crash: read adds no retry" 0
    (KV_smr.client_retries c);
  Alcotest.(check bool) "survivors installed a newer view" true
    (KV_smr.Deployment.replica_view d 1 > 0
    && KV_smr.Deployment.replica_view d 1 = KV_smr.Deployment.replica_view d 2);
  KV_smr.Deployment.shutdown d

(* --- at-most-once semantics under retries --- *)

module Bank_smr = Psmr_replica.Replica.Make (RP) (Psmr_app.Bank)

let test_exactly_once_deposits () =
  (* Aggressive client timeout forces spurious retries; deposits must still
     be applied exactly once each. *)
  let services = Array.make 3 None in
  let make_service id =
    let s = Psmr_app.Bank.create ~accounts:4 ~initial_balance:0 in
    services.(id) <- Some s;
    s
  in
  let cfg =
    {
      (Bank_smr.Deployment.default_config ~make_service ()) with
      clients = 2;
      mode = Parallel { impl = Psmr_early.Registry.Lockfree; workers = 2 };
      abcast = fast_abcast;
      tick_interval = 1e-3;
      client_timeout = 0.02 (* small: retries will happen *);
    }
  in
  let d = Bank_smr.Deployment.create cfg in
  Bank_smr.Deployment.start d;
  let deposits_per_client = 25 in
  let worker ci =
    let c = Bank_smr.Deployment.client d ci in
    fun () ->
      for _ = 1 to deposits_per_client do
        ignore (Bank_smr.call c (Deposit (ci, 1)) : _ option)
      done;
      (* Retries of the last request may still be in flight; settle. *)
      ignore (Bank_smr.call c (Balance ci) : _ option)
  in
  let t0 = Thread.create (worker 0) () in
  let t1 = Thread.create (worker 1) () in
  Thread.join t0;
  Thread.join t1;
  Thread.delay 0.3;
  let check_replica i =
    match services.(i) with
    | Some s ->
        Alcotest.(check int)
          (Printf.sprintf "replica %d total (exactly-once)" i)
          (2 * deposits_per_client)
          (Psmr_app.Bank.total s)
    | None -> Alcotest.fail "missing service"
  in
  check_replica 0;
  check_replica 1;
  check_replica 2;
  Bank_smr.Deployment.shutdown d

(* --- the same deployment stack under the simulator --- *)

let test_sim_deployment () =
  let open Psmr_sim in
  let engine = Engine.create () in
  let (module SP) = Sim_platform.make engine Costs.default in
  let module SMR = Psmr_replica.Replica.Make (SP) (Psmr_app.Kv_store) in
  let responses = ref [] in
  let cfg =
    {
      (SMR.Deployment.default_config ~make_service:(fun _ ->
           Psmr_app.Kv_store.create ~capacity:64)
         ()) with
      clients = 4;
      mode = Parallel { impl = Psmr_early.Registry.Lockfree; workers = 4 };
      abcast = fast_abcast;
      tick_interval = 1e-3;
      client_timeout = 0.4;
      latency = (fun ~src:_ ~dst:_ -> 60e-6);
    }
  in
  let d = SMR.Deployment.create cfg in
  Engine.spawn engine (fun () ->
      SMR.Deployment.start d;
      for ci = 0 to 3 do
        SP.spawn (fun () ->
            let c = SMR.Deployment.client d ci in
            for i = 0 to 24 do
              match SMR.call c (Put ((ci * 16) + (i mod 16), i)) with
              | Some Stored -> responses := `Ok :: !responses
              | Some _ | None -> responses := `Bad :: !responses
            done)
      done);
  Engine.run ~until:5.0 engine;
  Alcotest.(check int) "all calls answered" 100 (List.length !responses);
  Alcotest.(check bool) "all stored" true
    (List.for_all (fun r -> r = `Ok) !responses);
  Alcotest.(check bool) "virtual time sane" true (Engine.now engine <= 5.0)

let test_sim_full_batch_burst mode () =
  (* Over 300 commands in flight at once, so the sequencer cuts full
     256-command batches — longer than the executor's default 150-command
     window.  Every call must still return. *)
  let open Psmr_sim in
  let engine = Engine.create () in
  let (module SP) = Sim_platform.make engine Costs.default in
  let module SMR = Psmr_replica.Replica.Make (SP) (Psmr_app.Kv_store) in
  let clients = 24 and per_call = 16 and rounds = 3 in
  let returned = ref 0 in
  let cfg =
    {
      (SMR.Deployment.default_config ~make_service:(fun _ ->
           Psmr_app.Kv_store.create ~capacity:64)
         ()) with
      clients;
      mode;
      abcast = { fast_abcast with batch_max = 256 };
      tick_interval = 1e-3;
      client_timeout = 0.4;
      latency = (fun ~src:_ ~dst:_ -> 60e-6);
    }
  in
  let d = SMR.Deployment.create cfg in
  Engine.spawn engine (fun () ->
      SMR.Deployment.start d;
      for ci = 0 to clients - 1 do
        SP.spawn (fun () ->
            let c = SMR.Deployment.client d ci in
            for r = 0 to rounds - 1 do
              let cmds =
                Array.init per_call (fun i ->
                    Psmr_app.Kv_store.Put (((ci * per_call) + i) mod 64, r))
              in
              match SMR.call_batch c cmds with
              | Some _ -> incr returned
              | None -> ()
            done)
      done);
  Engine.run ~until:2.0 engine;
  Alcotest.(check int) "every call returned" (clients * rounds) !returned

(* --- recovery equivalence: snapshot catch-up on every backend --- *)

(* [S] with every command tagged by a run-wide id.  Each replica's instance
   files the rendered response of each command it executes under that id,
   so two replicas can be compared command by command.  The table is
   evidence, not state: snapshots carry [S]'s state alone. *)
module Tagged (S : Psmr_app.Service_intf.S) = struct
  type command = { id : int; op : S.command }
  type response = S.response
  type t = { svc : S.t; resps : (int, string) Hashtbl.t }

  let create svc = { svc; resps = Hashtbl.create 256 }

  let execute t c =
    let r = S.execute t.svc c.op in
    Hashtbl.replace t.resps c.id (Format.asprintf "%a" S.pp_response r);
    r

  let snapshot t = S.snapshot t.svc
  let restore t s = S.restore t.svc s
  let footprint c = S.footprint c.op
  let conflict a b = S.conflict a.op b.op
  let pp_command ppf c = Format.fprintf ppf "#%d:%a" c.id S.pp_command c.op
  let pp_response = S.pp_response
end

module Catch_up (S : Psmr_app.Service_intf.S) = struct
  module T = Tagged (S)

  type outcome = {
    services : T.t array;
    delivered : int array;  (** commands each replica delivered itself *)
    views : int array array;  (** per replica, per partition *)
    retries : int;
  }

  (* [clients] clients call batches of [per_call] commands drawn from
     [gen], each one call per millisecond, while the log is truncated
     every four commands.  After client 0's 20th call everything into
     replica 2 is cut, its own ticks included; 0.3 s later the cut heals,
     and the clients stop once client 0 has made 50 more calls.  Replica 2
     can no longer catch up from logs (its gap is beyond every base), so
     it must install a snapshot cut: every partition's sequencer at once,
     plus the merge.  The clients listed in [muted] hear no replica from
     the cut until 50 ms after the heal.  The run fails unless every call
     returns. *)
  let run ~mode ~fresh ~gen ~seed ?(clients = 1) ?(muted = []) ?(per_call = 4)
      ?(client_timeout = 0.3) () =
    let open Psmr_sim in
    let engine = Engine.create () in
    (* Zero-cost atomic reads let the test inspect counters after the run. *)
    let (module SP) =
      Sim_platform.make engine { Costs.default with atomic_read = 0.0 }
    in
    let module SMR = Psmr_replica.Replica.Make (SP) (T) in
    let services = Array.init 3 (fun _ -> T.create (fresh ())) in
    let cfg =
      {
        (SMR.Deployment.default_config ~make_service:(Array.get services) ())
        with
        clients;
        mode;
        abcast = { fast_abcast with checkpoint_interval = 4; batch_max = 4 };
        tick_interval = 1e-3;
        client_timeout;
        latency = (fun ~src:_ ~dst:_ -> 1e-4);
      }
    in
    let d = SMR.Deployment.create cfg in
    let net = SMR.Deployment.network d in
    let rng = Random.State.make [| seed |] in
    let ids = ref 0 in
    let command () =
      let id = !ids in
      incr ids;
      { T.id; op = gen rng }
    in
    let finished = ref 0 and retries = ref 0 and stop = ref false in
    let client ci () =
      let c = SMR.Deployment.client d ci in
      let call () =
        let cmds = Array.init per_call (fun _ -> command ()) in
        if SMR.call_batch c cmds = None then Alcotest.fail "network shut down";
        SP.sleep 1e-3
      in
      if ci = 0 then begin
        for _ = 1 to 20 do call () done;
        (* Replicas are addresses [0, n), client [i] is [n + i]. *)
        let n = cfg.replicas in
        let mute ~src ~dst = src < n && List.mem (dst - n) muted in
        SMR.Net.set_link_filter net (fun ~src ~dst ->
            dst <> 2 && not (mute ~src ~dst));
        let healed = ref false in
        SP.spawn (fun () ->
            SP.sleep 0.3;
            SMR.Net.set_link_filter net (fun ~src ~dst -> not (mute ~src ~dst));
            healed := true;
            SP.sleep 0.05;
            SMR.Net.heal net);
        while not !healed do call () done;
        for _ = 1 to 50 do call () done;
        stop := true
      end
      else while not !stop do call () done;
      retries := !retries + SMR.client_retries c;
      incr finished
    in
    Engine.spawn engine (fun () ->
        SMR.Deployment.start d;
        for ci = 0 to clients - 1 do SP.spawn (client ci) done);
    Engine.run ~until:8.0 engine;
    if !finished < clients then Alcotest.fail "a client did not finish";
    let partitions =
      match mode with
      | Psmr_replica.Replica.Partitioned { partitions; _ } -> partitions
      | _ -> 1
    in
    {
      services;
      delivered = Array.init 3 (SMR.Deployment.replica_delivered d);
      views =
        Array.init 3 (fun r ->
            Array.init partitions (fun part ->
                SMR.Deployment.replica_view ~part d r));
      retries = !retries;
    }

  (* Replica 2 caught up through a snapshot (commands the snapshot covered
     were never delivered to it), ends with its peers' state, and every
     command it executed answered as at replica 0; replica 1 answered
     every command as replica 0 did. *)
  let check_equivalent ctx o =
    let check_bool what = Alcotest.(check bool) (ctx ^ ": " ^ what) true in
    check_bool "replica 2 caught up through a snapshot"
      (o.delivered.(2) < o.delivered.(0));
    let state i = T.snapshot o.services.(i) in
    check_bool "replica 1 has replica 0's state" (state 1 = state 0);
    check_bool "replica 2 has replica 0's state" (state 2 = state 0);
    let r0 = o.services.(0).resps in
    let same i =
      Hashtbl.fold
        (fun id resp n ->
          match Hashtbl.find_opt r0 id with
          | Some resp0 ->
              if resp <> resp0 then
                Alcotest.failf "%s: replica %d answered #%d %s, replica 0 %s"
                  ctx i id resp resp0;
              n + 1
          | None -> n)
        o.services.(i).resps 0
    in
    check_bool "replica 1 executed what replica 0 did"
      (same 1 = Hashtbl.length r0);
    let shared = same 2 in
    check_bool "replica 2 executed commands past the snapshot" (shared > 0);
    check_bool "the snapshot covered commands replica 2 never executed"
      (shared < Hashtbl.length r0)

  let test ~fresh ~gen mode () =
    List.iter
      (fun seed ->
        check_equivalent
          (Printf.sprintf "seed %d" seed)
          (run ~mode ~fresh ~gen ~seed ()))
      [ 1; 2 ]
end

module Bank_catch_up = Catch_up (Psmr_app.Bank)
module Kv_catch_up = Catch_up (Psmr_app.Kv_store)
module List_catch_up = Catch_up (Psmr_app.Linked_list)

let bank_fresh () = Psmr_app.Bank.create ~accounts:8 ~initial_balance:100

let bank_gen rng : Psmr_app.Bank.command =
  match Random.State.int rng 3 with
  | 0 -> Balance (Random.State.int rng 8)
  | 1 -> Deposit (Random.State.int rng 8, 1 + Random.State.int rng 20)
  | _ ->
      Transfer
        {
          src = Random.State.int rng 8;
          dst = Random.State.int rng 8;
          amount = 1 + Random.State.int rng 40;
        }

let kv_fresh () = Psmr_app.Kv_store.create ~capacity:16

let kv_gen rng : Psmr_app.Kv_store.command =
  match Random.State.int rng 5 with
  | 0 | 1 -> Get (Random.State.int rng 16)
  | 2 -> Scan (Random.State.int rng 13, 1 + Random.State.int rng 4)
  | _ -> Put (Random.State.int rng 16, Random.State.int rng 1000)

let list_fresh () = Psmr_app.Linked_list.create ~initial_size:50

let list_gen rng : Psmr_app.Linked_list.command =
  if Random.State.int rng 10 < 3 then Add (Random.State.int rng 100)
  else Contains (Random.State.int rng 100)

(* Every execution backend the registry names, plus sequential SMR. *)
let catch_up_modes =
  ("sequential", Psmr_replica.Replica.Sequential)
  :: List.map
       (fun (b : Psmr_early.Registry.backend) ->
         ( Psmr_early.Registry.to_string b,
           match b with
           | Cos impl -> Psmr_replica.Replica.Parallel { impl; workers = 3 }
           | Early { classes; optimistic = false } ->
               Parallel_early { workers = 3; classes }
           | Early { classes; optimistic = true } ->
               Parallel_early_opt { workers = 3; classes } ))
       Psmr_early.Registry.all

let catch_up_cases =
  List.concat_map
    (fun (backend, mode) ->
      List.map
        (fun (service, test) ->
          Alcotest.test_case (service ^ " on " ^ backend) `Quick (test mode))
        [
          ("bank", Bank_catch_up.test ~fresh:bank_fresh ~gen:bank_gen);
          ("kv-store", Kv_catch_up.test ~fresh:kv_fresh ~gen:kv_gen);
          ("linked-list", List_catch_up.test ~fresh:list_fresh ~gen:list_gen);
        ])
    catch_up_modes

(* The same catch-up across four partitions.  Partition 2's sequencer is
   replica 2, so the cut deposes it: replicas 0 and 1 install view 1.
   After the heal replica 2 adopts view 1 from the new leader's log and
   starts no further view change. *)
let test_partitioned_catch_up () =
  let o =
    Kv_catch_up.run
      ~mode:(Partitioned { partitions = 4; inner = Sequential })
      ~fresh:kv_fresh ~gen:kv_gen ~seed:1 ~per_call:1 ()
  in
  Kv_catch_up.check_equivalent "partitioned" o;
  Array.iteri
    (fun r views ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d: partition 2 in view 1" r)
        1 views.(2))
    o.views

(* Exactly-once across a snapshot install: a client timeout shorter than a
   call's round trip makes both clients resend deposits while replica 2 is
   cut off.  Client 1 hears no reply from the cut until 50 ms after the
   heal, past the snapshot's cut, so it resends one batch throughout: its
   deposits are ordered before the cut and resent after it.  Replica 2 screens those
   resends only if the screening table travelled with the snapshot. *)
let test_exactly_once_across_snapshot () =
  let deposits = ref 0 in
  let o =
    Bank_catch_up.run ~mode:(Parallel { impl = Lockfree; workers = 3 })
      ~fresh:(fun () -> Psmr_app.Bank.create ~accounts:4 ~initial_balance:0)
      ~gen:(fun rng ->
        incr deposits;
        Deposit (Random.State.int rng 4, 1))
      ~seed:1 ~clients:2 ~muted:[ 1 ] ~client_timeout:0.1e-3 ()
  in
  Alcotest.(check bool) "the client retried" true (o.retries > 0);
  Alcotest.(check bool) "replica 2 caught up through a snapshot" true
    (o.delivered.(2) < o.delivered.(0));
  Array.iteri
    (fun i (s : Bank_catch_up.T.t) ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d total (exactly-once)" i)
        !deposits (Psmr_app.Bank.total s.svc))
    o.services

(* Exactly-once through the response slots, on the simulator: each
   replica's one worker is slowed ([worker-slow]) and the client timeout
   is shorter than a call's round trip, so retried deposits reach every
   replica's screening.  Returns the client's retries, the messages the
   replicas sent to the client (one reply per command and replica, plus
   one per replayed duplicate), and per replica the commands it executed
   and its bank total. *)
let slot_retries ?(reply_latency = 60e-6) ~slow ~client_timeout ~deposits () =
  let open Psmr_sim in
  let engine = Engine.create () in
  let (module SP) = Sim_platform.make engine Costs.default in
  let module SMR = Psmr_replica.Replica.Make (SP) (Psmr_app.Bank) in
  let services =
    Array.init 3 (fun _ -> Psmr_app.Bank.create ~accounts:4 ~initial_balance:0)
  in
  let cfg =
    {
      (SMR.Deployment.default_config ~make_service:(Array.get services) ()) with
      clients = 1;
      mode = Parallel { impl = Psmr_early.Registry.Lockfree; workers = 1 };
      abcast = fast_abcast;
      client_timeout;
      latency =
        (fun ~src ~dst -> if src < 3 && dst >= 3 then reply_latency else 60e-6);
    }
  in
  let d = SMR.Deployment.create cfg in
  let to_client = ref 0 in
  SMR.Net.set_link_filter (SMR.Deployment.network d) (fun ~src ~dst ->
      if src < 3 && dst >= 3 then incr to_client;
      true);
  let retries = ref 0 in
  Engine.spawn engine (fun () ->
      SMR.Deployment.start d;
      SP.spawn (fun () ->
          let c = SMR.Deployment.client d 0 in
          for i = 1 to deposits do
            ignore (SMR.call c (Deposit (i mod 4, 1)) : _ option)
          done;
          retries := SMR.client_retries c));
  let executed = ref [||] in
  Engine.spawn engine ~delay:1.9 (fun () ->
      executed := Array.init 3 (SMR.Deployment.replica_executed d));
  let plan =
    Psmr_fault.Plan.make
      ~now:(fun () -> Engine.now engine)
      (Psmr_fault.Schedule.parse_exn (Printf.sprintf "worker-slow=1@0:%g" slow))
  in
  Psmr_fault.Plan.with_plan plan (fun () -> Engine.run ~until:2.0 engine);
  ( !retries,
    !to_client,
    !executed,
    Array.map Psmr_app.Bank.total services )

let check_exactly_once ~deposits (executed, totals) =
  Array.iteri
    (fun r n ->
      Alcotest.(check int) (Printf.sprintf "replica %d executed each once" r)
        deposits n)
    executed;
  Array.iteri
    (fun r total ->
      Alcotest.(check int) (Printf.sprintf "replica %d total (exactly-once)" r)
        deposits total)
    totals

(* (a) Replies take 3 ms, so each call's 5.5 ms timeout fires after its
   deposit executed (4 ms slowed) but before the reply lands: the retry
   finds a filled slot at every replica, which replays that response and
   executes nothing. *)
let test_retry_of_executed_replays () =
  let deposits = 10 in
  let retries, to_client, executed, totals =
    slot_retries ~reply_latency:3e-3 ~slow:4e-3 ~client_timeout:5.5e-3
      ~deposits ()
  in
  Alcotest.(check int) "one retry per call" deposits retries;
  Alcotest.(check int) "every replica replays every retry"
    (3 * (deposits + retries))
    to_client;
  check_exactly_once ~deposits (executed, totals)

(* (b) Each deposit runs 10 ms and the timeout is 1 ms, so every retry (at
   1, 3 and 7 ms) reaches the screening while its original is in flight:
   the slot is empty and the retry is dropped, without a reply. *)
let test_retry_in_flight_dropped () =
  let deposits = 10 in
  let retries, to_client, executed, totals =
    slot_retries ~slow:10e-3 ~client_timeout:1e-3 ~deposits ()
  in
  Alcotest.(check int) "three retries per call" (3 * deposits) retries;
  Alcotest.(check int) "one reply per command and replica" (3 * deposits)
    to_client;
  check_exactly_once ~deposits (executed, totals)

(* A client's cross-partition uid packs its address into 16 bits, so a
   deployment with more endpoints is refused up front, before the network
   or any replica exists, rather than at a client's first cross command. *)
let test_endpoint_limit () =
  let cfg =
    {
      (KV_smr.Deployment.default_config
         ~make_service:(fun _ -> Alcotest.fail "a replica was built")
         ())
      with
      replicas = 3;
      clients = 65534;
    }
  in
  Alcotest.check_raises "65537 endpoints"
    (Invalid_argument "Deployment: more than 65536 replicas and clients")
    (fun () -> ignore (KV_smr.Deployment.create cfg : KV_smr.Deployment.t))

let test_sim_deployment_deterministic () =
  let open Psmr_sim in
  let run () =
    let engine = Engine.create () in
    let (module SP) = Sim_platform.make engine Costs.default in
    let module SMR = Psmr_replica.Replica.Make (SP) (Psmr_app.Kv_store) in
    let finished = ref 0.0 in
    let cfg =
      {
        (SMR.Deployment.default_config ~make_service:(fun _ ->
             Psmr_app.Kv_store.create ~capacity:16)
           ()) with
        clients = 2;
        mode = Parallel { impl = Psmr_early.Registry.Coarse; workers = 2 };
        abcast = fast_abcast;
        latency = (fun ~src:_ ~dst:_ -> 80e-6);
      }
    in
    let d = SMR.Deployment.create cfg in
    Engine.spawn engine (fun () ->
        SMR.Deployment.start d;
        for ci = 0 to 1 do
          SP.spawn (fun () ->
              let c = SMR.Deployment.client d ci in
              for i = 0 to 9 do
                ignore (SMR.call c (Put (i, i)) : _ option)
              done;
              finished := SP.now ())
        done);
    Engine.run ~until:5.0 engine;
    !finished
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "finished" true (a > 0.0);
  Alcotest.(check (float 0.0)) "bit-identical completion time" a b

let test_sim_idle_call mode () =
  (* A 1 ms protocol tick and a 0.1 ms batch delay: one call at idle
     reaches the leader 0.2 ms in, long before the first periodic tick.
     With room in its window of in-flight batches the leader cuts it on
     arrival, so the call returns well before that tick could have cut
     it. *)
  let open Psmr_sim in
  let engine = Engine.create () in
  let (module SP) = Sim_platform.make engine Costs.default in
  let module SMR = Psmr_replica.Replica.Make (SP) (Psmr_app.Kv_store) in
  let cfg =
    {
      (SMR.Deployment.default_config ~make_service:(fun _ ->
           Psmr_app.Kv_store.create ~capacity:64)
         ()) with
      clients = 1;
      mode;
      abcast = { fast_abcast with batch_delay = 0.1e-3 };
      tick_interval = 1e-3;
      latency = (fun ~src:_ ~dst:_ -> 10e-6);
    }
  in
  let d = SMR.Deployment.create cfg in
  let elapsed = ref infinity in
  Engine.spawn engine (fun () ->
      SMR.Deployment.start d;
      SP.sleep 0.2e-3;
      let c = SMR.Deployment.client d 0 in
      let t0 = SP.now () in
      match SMR.call c (Put (1, 7)) with
      | Some Stored -> elapsed := SP.now () -. t0
      | Some _ | None -> ());
  Engine.run ~until:0.05 engine;
  if not (!elapsed < 0.5e-3) then
    Alcotest.failf "call took %.3f ms; the batch waited for a tick"
      (!elapsed *. 1e3)

(* --- notice-first failover at benchmark timing (simulator) --- *)

(* The benchmark's protocol timing: 150 ms election timeout, 20 ms
   heartbeats, 0.25 s client timeout, 60 us links. *)
let bench_abcast =
  {
    Psmr_broadcast.Abcast.batch_max = 256;
    batch_delay = 0.5e-3;
    heartbeat_interval = 20e-3;
    election_timeout = 150e-3;
    checkpoint_interval = 256;
  }

let bench_client_timeout = 0.25

(* One client writes once, then writes again while the leader (replica 0)
   crash-stops under the request: the crash lands 10 us after the send,
   before the 60 us link delivers it.  With [drop_notice], every message
   from the new leader (replica 1) to the client is dropped until the
   survivors have installed the new view, which loses the notice.
   Returns the second write's response, its return time less the crash
   time, and the client's timeout retries. *)
let sim_crash_under_call ~drop_notice =
  let open Psmr_sim in
  let engine = Engine.create () in
  let (module SP) = Sim_platform.make engine Costs.default in
  let module SMR = Psmr_replica.Replica.Make (SP) (Psmr_app.Kv_store) in
  let cfg =
    {
      (SMR.Deployment.default_config ~make_service:(fun _ ->
           Psmr_app.Kv_store.create ~capacity:16)
         ()) with
      clients = 1;
      abcast = bench_abcast;
      tick_interval = 0.25e-3;
      client_timeout = bench_client_timeout;
      latency = (fun ~src:_ ~dst:_ -> 60e-6);
    }
  in
  let d = SMR.Deployment.create cfg in
  let net = SMR.Deployment.network d in
  let client_addr = cfg.replicas in
  let result = ref None in
  Engine.spawn engine (fun () ->
      SMR.Deployment.start d;
      let c = SMR.Deployment.client d 0 in
      ignore (SMR.call c (Put (0, 1)) : _ option);
      SP.sleep 50e-3;
      let crash_at = SP.now () +. 10e-6 in
      SP.spawn (fun () ->
          SP.sleep 10e-6;
          SMR.Deployment.crash_replica d 0;
          if drop_notice then begin
            SMR.Net.set_link_filter net (fun ~src ~dst ->
                not (src = 1 && dst = client_addr));
            while SMR.Deployment.replica_view d 1 = 0 do
              SP.sleep 1e-3
            done;
            SMR.Net.heal net
          end);
      let resp = SMR.call c (Put (1, 2)) in
      result := Some (resp, SP.now () -. crash_at, SMR.client_retries c));
  Engine.run ~until:2.0 engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "the call never returned"

(* The survivors' view change completes one election timeout after their
   last contact with the leader, which precedes the crash by at most one
   heartbeat interval. *)
let view_change_floor =
  bench_abcast.election_timeout -. bench_abcast.heartbeat_interval

let test_sim_notice_failover () =
  let resp, elapsed, retries = sim_crash_under_call ~drop_notice:false in
  Alcotest.(check bool) "write answered" true (resp = Some Stored);
  Alcotest.(check int) "no timeout retry" 0 retries;
  if not (elapsed >= view_change_floor && elapsed < bench_client_timeout)
  then
    Alcotest.failf
      "returned %.1f ms after the crash; expected the view change (%.0f-%.0f \
       ms), before the %.0f ms client timeout"
      (elapsed *. 1e3) (view_change_floor *. 1e3)
      (bench_abcast.election_timeout *. 1e3)
      (bench_client_timeout *. 1e3)

let test_sim_lost_notice_fallback () =
  let resp, elapsed, retries = sim_crash_under_call ~drop_notice:true in
  Alcotest.(check bool) "write answered" true (resp = Some Stored);
  Alcotest.(check int) "one timeout retry" 1 retries;
  if not (elapsed >= bench_client_timeout) then
    Alcotest.failf "returned %.1f ms after the crash, before the %.0f ms \
                    client timeout"
      (elapsed *. 1e3) (bench_client_timeout *. 1e3)

let () =
  let m_seq = Psmr_replica.Replica.Sequential in
  let m_par impl =
    Psmr_replica.Replica.Parallel { impl; workers = 3 }
  in
  let m_early = Psmr_replica.Replica.Parallel_early { workers = 3; classes = None } in
  let m_early_opt =
    Psmr_replica.Replica.Parallel_early_opt { workers = 3; classes = None }
  in
  Alcotest.run "replica"
    [
      ( "config",
        [ Alcotest.test_case "endpoint limit" `Quick test_endpoint_limit ] );
      ( "roundtrip",
        [
          Alcotest.test_case "sequential" `Quick (test_kv_roundtrip m_seq);
          Alcotest.test_case "coarse" `Quick
            (test_kv_roundtrip (m_par Psmr_early.Registry.Coarse));
          Alcotest.test_case "fine" `Quick
            (test_kv_roundtrip (m_par Psmr_early.Registry.Fine));
          Alcotest.test_case "lockfree" `Quick
            (test_kv_roundtrip (m_par Psmr_early.Registry.Lockfree));
          Alcotest.test_case "early" `Quick (test_kv_roundtrip m_early);
          Alcotest.test_case "early-opt" `Quick (test_kv_roundtrip m_early_opt);
        ] );
      ( "convergence",
        [
          Alcotest.test_case "sequential" `Quick (test_kv_replicas_converge m_seq);
          Alcotest.test_case "lockfree parallel" `Quick
            (test_kv_replicas_converge (m_par Psmr_early.Registry.Lockfree));
          Alcotest.test_case "early" `Quick (test_kv_replicas_converge m_early);
          Alcotest.test_case "early-opt" `Quick
            (test_kv_replicas_converge m_early_opt);
        ] );
      ( "failover",
        [
          Alcotest.test_case "sequential" `Quick (test_leader_crash_failover m_seq);
          Alcotest.test_case "lockfree parallel" `Quick
            (test_leader_crash_failover (m_par Psmr_early.Registry.Lockfree));
        ] );
      ( "at-most-once",
        [ Alcotest.test_case "deposits under retries" `Quick test_exactly_once_deposits ] );
      ( "simulated",
        [
          Alcotest.test_case "full deployment on sim" `Quick test_sim_deployment;
          Alcotest.test_case "deterministic" `Quick test_sim_deployment_deterministic;
          Alcotest.test_case "full-batch burst (early)" `Quick
            (test_sim_full_batch_burst m_early);
          Alcotest.test_case "full-batch burst (early-opt)" `Quick
            (test_sim_full_batch_burst m_early_opt);
          Alcotest.test_case "state transfer after truncation (partitioned)"
            `Quick test_partitioned_catch_up;
          Alcotest.test_case "exactly-once across a snapshot install" `Quick
            test_exactly_once_across_snapshot;
          Alcotest.test_case "retry of an executed command replays its slot"
            `Quick test_retry_of_executed_replays;
          Alcotest.test_case "retry of an in-flight command is dropped" `Quick
            test_retry_in_flight_dropped;
          Alcotest.test_case "leader notice fails over at view change" `Quick
            test_sim_notice_failover;
          Alcotest.test_case "lost notice falls back to the timeout" `Quick
            test_sim_lost_notice_fallback;
          Alcotest.test_case "idle call cut at once" `Quick
            (test_sim_idle_call (m_par Psmr_early.Registry.Lockfree));
          Alcotest.test_case "idle call cut at once (partitioned)" `Quick
            (test_sim_idle_call
               (Psmr_replica.Replica.Partitioned
                  { partitions = 2; inner = m_early }));
        ] );
      ("recovery-equivalence", catch_up_cases);
    ]
