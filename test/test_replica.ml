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
  (* The next calls must eventually succeed via the new leader. *)
  Alcotest.(check bool) "after crash: write" true
    (KV_smr.call c (Put (1, 2)) = Some Stored);
  Alcotest.(check bool) "after crash: read" true
    (KV_smr.call c (Get 1) = Some (Value (Some 2)));
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
      mode = Parallel { impl = Psmr_cos.Registry.Lockfree; workers = 2 };
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
      mode = Parallel { impl = Psmr_cos.Registry.Lockfree; workers = 4 };
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

let test_state_transfer_after_truncation () =
  (* Partition replica 2 away from its peers' traffic while the log is being
     truncated aggressively; after healing, it can no longer catch up from
     logs (gap beyond every base) so it must recover through a service
     snapshot, and end up with the same state. *)
  let open Psmr_sim in
  let engine = Engine.create () in
  (* Zero-cost atomic reads let the test inspect counters after the run. *)
  let (module SP) =
    Sim_platform.make engine { Costs.default with atomic_read = 0.0 }
  in
  let module SMR = Psmr_replica.Replica.Make (SP) (Psmr_app.Kv_store) in
  let services = Array.make 3 None in
  let cfg =
    {
      (SMR.Deployment.default_config ~make_service:(fun id ->
           let s = Psmr_app.Kv_store.create ~capacity:16 in
           services.(id) <- Some s;
           s)
         ()) with
      clients = 1;
      mode = Sequential;
      abcast = { fast_abcast with checkpoint_interval = 4; batch_max = 4 };
      tick_interval = 1e-3;
      client_timeout = 0.3;
      latency = (fun ~src:_ ~dst:_ -> 1e-4);
    }
  in
  let d = SMR.Deployment.create cfg in
  let net = SMR.Deployment.network d in
  let client_done = ref false in
  Engine.spawn engine (fun () ->
      SMR.Deployment.start d;
      SP.spawn (fun () ->
          let c = SMR.Deployment.client d 0 in
          for i = 0 to 199 do
            ignore (SMR.call c (Put (i mod 16, i)) : _ option)
          done;
          client_done := true));
  (* Cut everything into replica 2 between t=0.2 and t=1.2. *)
  Engine.spawn engine ~delay:0.2 (fun () ->
      SMR.Net.set_link_filter net (fun ~src:_ ~dst -> dst <> 2));
  Engine.spawn engine ~delay:1.2 (fun () -> SMR.Net.heal net);
  Engine.run ~until:8.0 engine;
  Alcotest.(check bool) "client finished" true !client_done;
  let dump = function
    | Some s -> List.init 16 (fun k -> Psmr_app.Kv_store.execute s (Get k))
    | None -> Alcotest.fail "service missing"
  in
  (* Let replica 2 finish catching up within the run window; states must
     converge. *)
  let s0 = dump services.(0) in
  Alcotest.(check bool) "replica 1 converged" true (dump services.(1) = s0);
  Alcotest.(check bool) "replica 2 converged via state transfer" true
    (dump services.(2) = s0);
  (* Commands skipped over by the snapshot were never individually delivered
     at replica 2 — proof the recovery went through state transfer rather
     than log replay. *)
  Alcotest.(check bool) "snapshot skipped deliveries" true
    (SMR.Deployment.replica_delivered d 2 < SMR.Deployment.replica_delivered d 0)

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
        mode = Parallel { impl = Psmr_cos.Registry.Coarse; workers = 2 };
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
      ( "roundtrip",
        [
          Alcotest.test_case "sequential" `Quick (test_kv_roundtrip m_seq);
          Alcotest.test_case "coarse" `Quick
            (test_kv_roundtrip (m_par Psmr_cos.Registry.Coarse));
          Alcotest.test_case "fine" `Quick
            (test_kv_roundtrip (m_par Psmr_cos.Registry.Fine));
          Alcotest.test_case "lockfree" `Quick
            (test_kv_roundtrip (m_par Psmr_cos.Registry.Lockfree));
          Alcotest.test_case "early" `Quick (test_kv_roundtrip m_early);
          Alcotest.test_case "early-opt" `Quick (test_kv_roundtrip m_early_opt);
        ] );
      ( "convergence",
        [
          Alcotest.test_case "sequential" `Quick (test_kv_replicas_converge m_seq);
          Alcotest.test_case "lockfree parallel" `Quick
            (test_kv_replicas_converge (m_par Psmr_cos.Registry.Lockfree));
          Alcotest.test_case "early" `Quick (test_kv_replicas_converge m_early);
          Alcotest.test_case "early-opt" `Quick
            (test_kv_replicas_converge m_early_opt);
        ] );
      ( "failover",
        [
          Alcotest.test_case "sequential" `Quick (test_leader_crash_failover m_seq);
          Alcotest.test_case "lockfree parallel" `Quick
            (test_leader_crash_failover (m_par Psmr_cos.Registry.Lockfree));
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
          Alcotest.test_case "state transfer after truncation" `Quick
            test_state_transfer_after_truncation;
        ] );
    ]
