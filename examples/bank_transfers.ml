(* A replicated bank with per-account conflicts.

   Unlike the readers-writers list, transfers only conflict when they share
   an account, so the dependency DAG is a rich partial order and parallel
   SMR extracts real concurrency even from a write-heavy workload.  The
   example checks the invariant that makes or breaks exactly-once execution:
   money is conserved on every replica.

     dune exec examples/bank_transfers.exe *)

module RP = Psmr_platform.Real_platform
module SMR = Psmr_replica.Replica.Make (RP) (Psmr_app.Bank)

let accounts = 32
let initial_balance = 1_000
let clients = 4
let transfers_per_client = 150

let () =
  let services = Array.make 3 None in
  let cfg =
    {
      (SMR.Deployment.default_config ~make_service:(fun id ->
           let s = Psmr_app.Bank.create ~accounts ~initial_balance in
           services.(id) <- Some s;
           s)
         ()) with
      clients;
      mode = Parallel { impl = Psmr_early.Registry.Lockfree; workers = 6 };
      client_timeout = 0.3;
    }
  in
  let d = SMR.Deployment.create cfg in
  SMR.Deployment.start d;
  let start = Unix.gettimeofday () in
  let threads =
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            let c = SMR.Deployment.client d ci in
            let rng = Psmr_util.Rng.create ~seed:(Int64.of_int (7 * (ci + 1))) in
            let rejected = ref 0 in
            for _ = 1 to transfers_per_client do
              let src = Psmr_util.Rng.int rng accounts in
              let dst = (src + 1 + Psmr_util.Rng.int rng (accounts - 1)) mod accounts in
              let amount = Psmr_util.Rng.int rng 200 in
              match SMR.call c (Transfer { src; dst; amount }) with
              | Some Ok -> ()
              | Some Insufficient -> incr rejected
              | Some (Amount _) | None -> failwith "unexpected response"
            done;
            Printf.printf "[client %d] done, %d transfers rejected for insufficient funds\n%!"
              ci !rejected)
          ())
  in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. start in
  let total_ops = clients * transfers_per_client in
  Printf.printf "%d transfers in %.2fs (%.0f ops/s end-to-end)\n" total_ops
    elapsed
    (float_of_int total_ops /. elapsed);
  (* Give non-leader replicas a moment to finish applying, then audit. *)
  Thread.delay 0.2;
  Array.iteri
    (fun i s ->
      match s with
      | Some bank ->
          let total = Psmr_app.Bank.total bank in
          Printf.printf "replica %d: total balance %d (expected %d) -> %s\n" i
            total (accounts * initial_balance)
            (if total = accounts * initial_balance then "conserved" else "VIOLATION")
      | None -> ())
    services;
  SMR.Deployment.shutdown d
