(* Fault-injection subsystem tests: schedule parsing, facade decisions,
   zero-perturbation of the empty plan, replayability of faulty runs, and
   the recovery-equivalence property — a crashed-and-recovered replica
   reaches a byte-identical final state and reply sequence. *)

module Schedule = Psmr_fault.Schedule
module Plan = Psmr_fault.Plan
module Fault = Psmr_fault.Fault
module Rng = Psmr_util.Rng

(* --- schedule parsing --- *)

let test_parse_empty () =
  (match Schedule.parse "" with
  | Ok t -> Alcotest.(check bool) "empty spec is empty" true (Schedule.is_empty t)
  | Error e -> Alcotest.failf "empty spec rejected: %s" e);
  Alcotest.(check bool) "empty has no net faults" false
    (Schedule.has_net_faults Schedule.empty)

let test_parse_full () =
  let t =
    Schedule.parse_exn
      "seed=7, net-loss=10, net-dup=5, net-delay=50:0.002, \
       worker-crash=1@0.5+0.1, worker-stall=2@0.6:0.01, worker-slow=3@0.7:2, \
       replica-crash=0@1.5+0.25"
  in
  Alcotest.(check int64) "seed" 7L t.Schedule.seed;
  Alcotest.(check (float 1e-9)) "loss" 10.0 t.Schedule.net.Schedule.loss_pct;
  Alcotest.(check (float 1e-9)) "dup" 5.0 t.Schedule.net.Schedule.dup_pct;
  Alcotest.(check (float 1e-9)) "delay pct" 50.0 t.Schedule.net.Schedule.delay_pct;
  Alcotest.(check (float 1e-9)) "delay" 0.002 t.Schedule.net.Schedule.delay;
  Alcotest.(check int) "worker events" 3 (List.length t.Schedule.workers);
  (match t.Schedule.workers with
  | [ c; s; sl ] ->
      Alcotest.(check bool) "crash first" true
        (c.Schedule.fault = Schedule.Crash { respawn_after = Some 0.1 });
      Alcotest.(check bool) "stall second" true
        (s.Schedule.fault = Schedule.Stall 0.01);
      Alcotest.(check bool) "slow third" true (sl.Schedule.fault = Schedule.Slow 2.0)
  | _ -> Alcotest.fail "worker events not sorted as expected");
  match t.Schedule.replicas with
  | [ r ] ->
      Alcotest.(check int) "replica id" 0 r.Schedule.replica;
      Alcotest.(check (float 1e-9)) "replica at" 1.5 r.Schedule.at;
      Alcotest.(check bool) "recover after" true (r.Schedule.recover_after = Some 0.25)
  | _ -> Alcotest.fail "expected one replica event"

let test_roundtrip () =
  List.iter
    (fun spec ->
      let t = Schedule.parse_exn spec in
      let s = Schedule.to_string t in
      let t' = Schedule.parse_exn s in
      Alcotest.(check string)
        (Printf.sprintf "roundtrip %S" spec)
        s (Schedule.to_string t'))
    [
      "";
      "seed=3";
      "net-loss=25";
      "seed=9,net-loss=1,net-dup=2,net-delay=3:0.004";
      "worker-crash=1@0.5";
      "worker-crash=2@0.5+0.125";
      "worker-stall=1@0.25:0.0625,worker-slow=4@1:0.5";
      "replica-crash=0@2+0.5,replica-crash=1@3";
    ]

let test_parse_errors () =
  List.iter
    (fun spec ->
      match Schedule.parse spec with
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" spec
      | Error _ -> ())
    [
      "bogus=3";
      "net-loss";
      "net-loss=abc";
      "net-loss=150";
      "net-delay=10";
      "worker-crash=1";
      "worker-stall=1@0.5";
      "worker-slow=1@0.5+2";
      "seed=x";
      "worker-crash=-1@0.5";
    ]

(* --- facade decisions --- *)

let test_facade_disabled () =
  Plan.clear ();
  Alcotest.(check bool) "disabled" false (Fault.enabled ());
  Alcotest.(check bool) "net delivers" true (Fault.net ~src:0 ~dst:1 = Fault.Deliver);
  Alcotest.(check bool) "worker runs" true (Fault.worker ~id:1 = Fault.Run);
  Alcotest.(check bool) "no replica crash" true (Fault.replica ~id:0 = None);
  Alcotest.(check bool) "no pending crash" true
    (Fault.replica_crash_pending ~id:0 = None)

let test_worker_events_consumed_once () =
  let now = ref 0.0 in
  let plan =
    Plan.make ~now:(fun () -> !now)
      (Schedule.parse_exn "worker-crash=1@1.0+0.5,worker-stall=2@1.0:0.125")
  in
  Plan.with_plan plan (fun () ->
      Alcotest.(check bool) "enabled" true (Fault.enabled ());
      Alcotest.(check bool) "not due yet" true (Fault.worker ~id:1 = Fault.Run);
      now := 1.5;
      Alcotest.(check bool) "crash fires" true
        (Fault.worker ~id:1 = Fault.Crash { respawn_after = Some 0.5 });
      Alcotest.(check bool) "crash consumed" true (Fault.worker ~id:1 = Fault.Run);
      Alcotest.(check bool) "stall fires for 2" true
        (Fault.worker ~id:2 = Fault.Stall 0.125);
      Alcotest.(check bool) "stall consumed" true (Fault.worker ~id:2 = Fault.Run);
      Alcotest.(check int) "two injections" 2 (Plan.injected plan));
  Alcotest.(check bool) "plan restored" false (Fault.enabled ())

let test_slow_is_permanent () =
  let now = ref 1.0 in
  let plan =
    Plan.make ~now:(fun () -> !now) (Schedule.parse_exn "worker-slow=1@0.5:0.25")
  in
  Plan.with_plan plan (fun () ->
      for _ = 1 to 3 do
        Alcotest.(check bool) "slow every command" true
          (Fault.worker ~id:1 = Fault.Slow 0.25)
      done;
      Alcotest.(check bool) "other workers unaffected" true
        (Fault.worker ~id:2 = Fault.Run))

let test_replica_peek_then_consume () =
  let now = ref 0.0 in
  let plan =
    Plan.make ~now:(fun () -> !now) (Schedule.parse_exn "replica-crash=0@2+0.5")
  in
  Plan.with_plan plan (fun () ->
      Alcotest.(check bool) "peek does not consume" true
        (Fault.replica_crash_pending ~id:0 = Some 2.0);
      Alcotest.(check bool) "peek again" true
        (Fault.replica_crash_pending ~id:0 = Some 2.0);
      Alcotest.(check bool) "not due" true (Fault.replica ~id:0 = None);
      now := 2.0;
      Alcotest.(check bool) "due event consumed" true
        (Fault.replica ~id:0 = Some (`Crash (Some 0.5)));
      Alcotest.(check bool) "gone" true (Fault.replica ~id:0 = None);
      Alcotest.(check bool) "peek empty" true
        (Fault.replica_crash_pending ~id:0 = None))

let net_decisions spec n =
  let plan = Plan.make ~now:(fun () -> 0.0) (Schedule.parse_exn spec) in
  Plan.with_plan plan (fun () ->
      List.init n (fun _ -> Fault.net ~src:0 ~dst:1))

let test_net_decisions_replayable () =
  let spec = "seed=5,net-loss=30,net-dup=20,net-delay=10:0.001" in
  let a = net_decisions spec 100 and b = net_decisions spec 100 in
  Alcotest.(check bool) "same seed, same decisions" true (a = b);
  let c = net_decisions "seed=6,net-loss=30,net-dup=20,net-delay=10:0.001" 100 in
  Alcotest.(check bool) "different seed, different decisions" true (a <> c);
  let fired = List.filter (fun d -> d <> Fault.Deliver) a in
  Alcotest.(check bool) "some faults fired" true (List.length fired > 10)

(* --- standalone harness: zero perturbation and replayability --- *)

let spec10 =
  { Psmr_workload.Workload.write_pct = 10.0; cost = Psmr_workload.Workload.Light }

let standalone ?faults () =
  Psmr_harness.Standalone.run ~backend:(Cos Psmr_early.Registry.Lockfree)
    ~workers:4 ~workload:(Paper spec10) ~duration:0.05 ~warmup:0.01 ?faults ()

let test_standalone_zero_perturbation () =
  let base = standalone () in
  (* A schedule that can never fire must leave the run bit-identical. *)
  let armed = standalone ~faults:(Schedule.parse_exn "seed=99") () in
  Alcotest.(check int) "executed" base.executed armed.executed;
  Alcotest.(check (float 1e-9)) "kops" base.kops armed.kops;
  Alcotest.(check int) "no injections" 0 armed.faults_injected;
  Alcotest.(check int) "no crashes" 0 armed.crashed_workers

let test_standalone_faulty_replayable () =
  let faults () =
    Schedule.parse_exn "seed=3,worker-crash=1@0.02+0.01,worker-stall=2@0.03:0.005"
  in
  let a = standalone ~faults:(faults ()) () in
  let b = standalone ~faults:(faults ()) () in
  Alcotest.(check int) "executed replays" a.executed b.executed;
  Alcotest.(check (float 1e-9)) "kops replays" a.kops b.kops;
  Alcotest.(check int) "injections replay" a.faults_injected b.faults_injected;
  Alcotest.(check int) "crash happened" 1 a.crashed_workers;
  Alcotest.(check bool) "faults fired" true (a.faults_injected >= 2)

let test_standalone_rejects_replica_crash () =
  Alcotest.(check bool) "rejected" true
    (match standalone ~faults:(Schedule.parse_exn "replica-crash=0@0.02") () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- the replicated deployment: a due replica crash crash-stops it --- *)

let smr ~faults =
  Psmr_harness.Smr.run
    ~mode:(Parallel { impl = Psmr_early.Registry.Lockfree; workers = 4 })
    ~spec:spec10 ~clients:4 ~duration:0.24 ~warmup:0.01
    ~faults:(Schedule.parse_exn faults) ()

let test_smr_replica_crash () =
  (* Replica 0 leads view 0; its crash at 50 ms makes the survivors elect
     a new leader once the 150 ms election timeout passes. *)
  let r = smr ~faults:"replica-crash=0@0.05" in
  Alcotest.(check int) "one injected" 1 r.faults_injected;
  Alcotest.(check bool) "a view change" true (r.views >= 1);
  Alcotest.(check bool) "the survivors' throughput counts" true (r.kops > 0.0)

let test_smr_rejects_recovery () =
  Alcotest.(check bool) "rejected" true
    (match smr ~faults:"replica-crash=0@0.05+0.01" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- recovery equivalence: crashed + recovered replica ends byte-identical
   to the fault-free run, across every COS implementation, the early
   class-map dispatcher and every service --- *)

let backends =
  Psmr_early.Registry.
    [
      Cos Coarse;
      Cos Fine;
      Cos Lockfree;
      Cos Fifo;
      Cos (Striped 4);
      Cos Indexed;
      Early Psmr_early.Early_intf.conservative;
    ]

module Recovery_equiv (Service : Psmr_app.Service_intf.S) = struct
  module R = Psmr_harness.Recovery.Make (Service)

  (* Run the log fault-free, then again with a replica crash halfway
     through (recovering after a tenth of the run) and compare. *)
  let check ~name ~state ~log ~seed =
    List.iter
      (fun backend ->
        let ctx =
          Printf.sprintf "%s/%s seed %d" name
            (Psmr_early.Registry.to_string backend)
            seed
        in
        let base =
          R.run ~backend ~workers:3 ~state ~log ~checkpoint_every:8 ()
        in
        if not base.R.completed then
          QCheck.Test.fail_reportf "%s: fault-free run incomplete" ctx;
        if base.R.crashes <> 0 then
          QCheck.Test.fail_reportf "%s: fault-free run crashed" ctx;
        let faults =
          Schedule.parse_exn
            (Printf.sprintf "replica-crash=0@%.9g+%.9g" (base.R.end_time /. 2.0)
               (base.R.end_time /. 10.0))
        in
        let faulty =
          R.run ~backend ~workers:3 ~state ~log ~checkpoint_every:8 ~faults ()
        in
        if faulty.R.crashes <> 1 || faulty.R.recoveries <> 1 then
          QCheck.Test.fail_reportf "%s: expected 1 crash + 1 recovery, got %d/%d"
            ctx faulty.R.crashes faulty.R.recoveries;
        if not faulty.R.completed then
          QCheck.Test.fail_reportf "%s: recovered run incomplete" ctx;
        if faulty.R.final_state <> base.R.final_state then
          QCheck.Test.fail_reportf "%s: final states differ after recovery" ctx;
        if faulty.R.replies <> base.R.replies then
          QCheck.Test.fail_reportf "%s: reply sequences differ after recovery"
            ctx)
      backends;
    true
end

module RB = Recovery_equiv (Psmr_app.Bank)
module RK = Recovery_equiv (Psmr_app.Kv_store)
module RL = Recovery_equiv (Psmr_app.Linked_list)

let log_of rng n gen = Array.init n (fun _ -> gen rng)

let qcheck_seed = QCheck.make ~print:string_of_int QCheck.Gen.(1 -- 10_000)

let recovery_bank =
  QCheck.Test.make ~count:3 ~name:"recovery equivalence (bank)" qcheck_seed
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let n = 24 + Rng.int rng 33 in
      let log =
        log_of rng n (fun rng ->
            match Rng.int rng 3 with
            | 0 -> Psmr_app.Bank.Balance (Rng.int rng 8)
            | 1 -> Psmr_app.Bank.Deposit (Rng.int rng 8, 1 + Rng.int rng 20)
            | _ ->
                Psmr_app.Bank.Transfer
                  {
                    src = Rng.int rng 8;
                    dst = Rng.int rng 8;
                    amount = 1 + Rng.int rng 40;
                  })
      in
      RB.check ~name:"bank"
        ~state:(fun () -> Psmr_app.Bank.create ~accounts:8 ~initial_balance:100)
        ~log ~seed)

let recovery_kv =
  QCheck.Test.make ~count:3 ~name:"recovery equivalence (kv-store)" qcheck_seed
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let n = 24 + Rng.int rng 33 in
      let log =
        log_of rng n (fun rng ->
            if Rng.bool rng then Psmr_app.Kv_store.Get (Rng.int rng 16)
            else Psmr_app.Kv_store.Put (Rng.int rng 16, Rng.int rng 1000))
      in
      RK.check ~name:"kv-store"
        ~state:(fun () -> Psmr_app.Kv_store.create ~capacity:16)
        ~log ~seed)

let recovery_list =
  QCheck.Test.make ~count:3 ~name:"recovery equivalence (linked-list)"
    qcheck_seed (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let n = 24 + Rng.int rng 33 in
      let log =
        log_of rng n (fun rng ->
            if Rng.below_percent rng 30.0 then
              Psmr_app.Linked_list.Add (Rng.int rng 100)
            else Psmr_app.Linked_list.Contains (Rng.int rng 100))
      in
      RL.check ~name:"linked-list"
        ~state:(fun () -> Psmr_app.Linked_list.create ~initial_size:50)
        ~log ~seed)

(* A directed (non-random) recovery case that exercises replay across a
   checkpoint boundary: crash early, before the first checkpoint of the
   second epoch, with a long log. *)
let test_recovery_directed () =
  let module R = Psmr_harness.Recovery.Make (Psmr_app.Kv_store) in
  let rng = Rng.create ~seed:77L in
  let log =
    Array.init 100 (fun _ ->
        if Rng.bool rng then Psmr_app.Kv_store.Get (Rng.int rng 16)
        else Psmr_app.Kv_store.Put (Rng.int rng 16, Rng.int rng 1000))
  in
  let state () = Psmr_app.Kv_store.create ~capacity:16 in
  let base = R.run ~backend:(Cos Lockfree) ~workers:4 ~state ~log () in
  Alcotest.(check bool) "base completed" true base.R.completed;
  Alcotest.(check bool) "base took checkpoints" true (base.R.checkpoints > 0);
  let faults =
    Schedule.parse_exn
      (Printf.sprintf "replica-crash=0@%.9g+%.9g" (base.R.end_time /. 4.0)
         (base.R.end_time /. 20.0))
  in
  let faulty =
    R.run ~backend:(Cos Lockfree) ~workers:4 ~state ~log ~faults ()
  in
  Alcotest.(check bool) "faulty completed" true faulty.R.completed;
  Alcotest.(check int) "one crash" 1 faulty.R.crashes;
  Alcotest.(check int) "one recovery" 1 faulty.R.recoveries;
  Alcotest.(check string) "final state equal" base.R.final_state
    faulty.R.final_state;
  Alcotest.(check (array string)) "replies equal" base.R.replies faulty.R.replies;
  Alcotest.(check bool) "crash costs time" true
    (faulty.R.end_time > base.R.end_time)

let test_recovery_crash_stop () =
  (* A crash with no recovery delay: the run stops incomplete. *)
  let module R = Psmr_harness.Recovery.Make (Psmr_app.Kv_store) in
  let log =
    Array.init 60 (fun i -> Psmr_app.Kv_store.Put (i mod 16, i))
  in
  let state () = Psmr_app.Kv_store.create ~capacity:16 in
  let base = R.run ~backend:(Cos Lockfree) ~workers:4 ~state ~log () in
  let faults =
    Schedule.parse_exn
      (Printf.sprintf "replica-crash=0@%.9g" (base.R.end_time /. 2.0))
  in
  let faulty =
    R.run ~backend:(Cos Lockfree) ~workers:4 ~state ~log ~faults ()
  in
  Alcotest.(check int) "one crash" 1 faulty.R.crashes;
  Alcotest.(check int) "no recovery" 0 faulty.R.recoveries;
  Alcotest.(check bool) "incomplete" false faulty.R.completed

let () =
  Alcotest.run "fault"
    [
      ( "schedule",
        [
          Alcotest.test_case "parse empty" `Quick test_parse_empty;
          Alcotest.test_case "parse full spec" `Quick test_parse_full;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
      ( "facade",
        [
          Alcotest.test_case "disabled defaults" `Quick test_facade_disabled;
          Alcotest.test_case "worker events consumed once" `Quick
            test_worker_events_consumed_once;
          Alcotest.test_case "slow is permanent" `Quick test_slow_is_permanent;
          Alcotest.test_case "replica peek then consume" `Quick
            test_replica_peek_then_consume;
          Alcotest.test_case "net decisions replayable" `Quick
            test_net_decisions_replayable;
        ] );
      ( "standalone",
        [
          Alcotest.test_case "empty plan is zero perturbation" `Quick
            test_standalone_zero_perturbation;
          Alcotest.test_case "faulty run replayable" `Quick
            test_standalone_faulty_replayable;
          Alcotest.test_case "replica crash rejected" `Quick
            test_standalone_rejects_replica_crash;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "replica crash crash-stops" `Quick
            test_smr_replica_crash;
          Alcotest.test_case "replica recovery rejected" `Quick
            test_smr_rejects_recovery;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "directed crash + replay" `Quick
            test_recovery_directed;
          Alcotest.test_case "crash-stop stays incomplete" `Quick
            test_recovery_crash_stop;
          QCheck_alcotest.to_alcotest recovery_bank;
          QCheck_alcotest.to_alcotest recovery_kv;
          QCheck_alcotest.to_alcotest recovery_list;
        ] );
    ]
