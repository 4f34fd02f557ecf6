(* The same replicated stack under the discrete-event simulator.

   This is how the benchmark harness reproduces the paper's 64-core
   figures on any machine: the deployment below simulates three 64-way
   replicas on a 1 Gbps LAN serving 100 closed-loop clients, in virtual
   time.  A multi-second cluster experiment runs in well under a second of
   wall-clock time and is bit-for-bit reproducible.

     dune exec examples/simulated_cluster.exe *)

let () =
  let wall0 = Unix.gettimeofday () in
  List.iter
    (fun (label, mode) ->
      let r =
        Psmr_harness.Smr.run ~mode
          ~spec:{ write_pct = 10.0; cost = Psmr_workload.Workload.Moderate }
          ~clients:100 ()
      in
      Printf.printf "%-28s %8.1f kops/s   mean latency %5.2f ms   p99 %5.2f ms\n%!"
        label r.kops r.mean_latency_ms r.p99_latency_ms)
    [
      ("sequential SMR", Psmr_replica.Replica.Sequential);
      ( "coarse-grained, 12 workers",
        Parallel { impl = Psmr_early.Registry.Coarse; workers = 12 } );
      ( "fine-grained, 6 workers",
        Parallel { impl = Psmr_early.Registry.Fine; workers = 6 } );
      ( "lock-free, 32 workers",
        Parallel { impl = Psmr_early.Registry.Lockfree; workers = 32 } );
    ];
  Printf.printf
    "\n(four simulated cluster experiments, 0.28 virtual seconds each, in %.1fs of wall time)\n"
    (Unix.gettimeofday () -. wall0)
