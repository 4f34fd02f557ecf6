(* Fault-injection subsystem tests: schedule parsing, facade decisions,
   zero-perturbation of the empty plan, replayability of faulty runs, and
   a due replica crash crash-stopping a deployment's replica.  Recovery
   equivalence (a replica cut off past log truncation catches up through
   a snapshot to its peers' state and replies) is checked on the
   deployment in test_replica.ml. *)

module Schedule = Psmr_fault.Schedule
module Plan = Psmr_fault.Plan
module Fault = Psmr_fault.Fault

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
       replica-crash=0@1.5"
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
      Alcotest.(check (float 1e-9)) "replica at" 1.5 r.Schedule.at
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
      "replica-crash=0@2,replica-crash=1@3";
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
      (* no deployment can restart a crashed replica *)
      "replica-crash=0@1+0.5";
    ]

(* --- facade decisions --- *)

let test_facade_disabled () =
  Plan.clear ();
  Alcotest.(check bool) "disabled" false (Fault.enabled ());
  Alcotest.(check bool) "net delivers" true (Fault.net ~src:0 ~dst:1 = Fault.Deliver);
  Alcotest.(check bool) "worker runs" true (Fault.worker ~id:1 = Fault.Run);
  Alcotest.(check bool) "no replica crash" false (Fault.replica ~id:0)

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
        ] );
    ]
