(* A fault-tolerant replicated linked-list service (the paper's evaluation
   application), end to end on real threads:

   - three replicas, each running parallel SMR with the lock-free COS and
     four worker threads;
   - two clients performing contains/add operations;
   - halfway through, the leader replica is crashed: the protocol elects a
     new leader and the clients fail over transparently.

     dune exec examples/replicated_list.exe *)

module RP = Psmr_platform.Real_platform
module SMR = Psmr_replica.Replica.Make (RP) (Psmr_app.Linked_list)

let () =
  let services = Array.make 3 None in
  let cfg =
    {
      (SMR.Deployment.default_config ~make_service:(fun id ->
           let s = Psmr_app.Linked_list.create ~initial_size:100 in
           services.(id) <- Some s;
           s)
         ()) with
      clients = 2;
      mode = Parallel { impl = Psmr_early.Registry.Lockfree; workers = 4 };
      abcast =
        {
          Psmr_broadcast.Abcast.batch_max = 32;
          batch_delay = 1e-3;
          heartbeat_interval = 10e-3;
          election_timeout = 120e-3;
          checkpoint_interval = 128;
        };
      client_timeout = 0.3;
    }
  in
  let d = SMR.Deployment.create cfg in
  SMR.Deployment.start d;
  let ops_per_client = 200 in
  let results = Array.make 2 (0, 0) in
  let client_thread ci =
    Thread.create
      (fun () ->
        let c = SMR.Deployment.client d ci in
        let rng = Psmr_util.Rng.create ~seed:(Int64.of_int (100 + ci)) in
        let hits = ref 0 and added = ref 0 in
        for i = 1 to ops_per_client do
          let target = Psmr_util.Rng.int rng 300 in
          let cmd =
            if Psmr_util.Rng.below_percent rng 20.0 then
              Psmr_app.Linked_list.Add target
            else Psmr_app.Linked_list.Contains target
          in
          (match (cmd, SMR.call c cmd) with
          | Psmr_app.Linked_list.Contains _, Some true -> incr hits
          | Psmr_app.Linked_list.Add _, Some true -> incr added
          | _, Some false -> ()
          | _, None -> failwith "deployment shut down mid-run");
          (* Client 0 crashes the leader a third of the way through. *)
          if ci = 0 && i = ops_per_client / 3 then begin
            Printf.printf "[client %d] crashing replica 0 (the leader)...\n%!" ci;
            SMR.Deployment.crash_replica d 0
          end
        done;
        results.(ci) <- (!hits, !added))
      ()
  in
  let t0 = client_thread 0 and t1 = client_thread 1 in
  Thread.join t0;
  Thread.join t1;
  Array.iteri
    (fun ci (hits, added) ->
      Printf.printf "[client %d] %d ops: %d successful contains, %d new entries\n"
        ci ops_per_client hits added)
    results;
  Printf.printf "view after failover: replica1=%d replica2=%d (0 = never changed)\n"
    (SMR.Deployment.replica_view d 1)
    (SMR.Deployment.replica_view d 2);
  (match (services.(1), services.(2)) with
  | Some s1, Some s2 ->
      Printf.printf "surviving replicas converged: %b (sizes %d and %d)\n"
        (Psmr_app.Linked_list.size s1 = Psmr_app.Linked_list.size s2)
        (Psmr_app.Linked_list.size s1)
        (Psmr_app.Linked_list.size s2)
  | _ -> ());
  SMR.Deployment.shutdown d
