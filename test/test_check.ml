(* Tests for the model-checking subsystem (lib/check): deterministic
   replay, schedule coverage, oracle cleanliness across all five COS
   implementations, exhaustive DFS on small scenarios, planted-bug
   detection with seed replay, and pinned schedule identity per checker
   family. *)

module Check = Psmr_checker
module Backend_check = Check.Backend_check
module Explore = Check.Explore
module Check_platform = Check.Check_platform
module Vclock = Check.Vclock

let impls =
  [
    (Psmr_early.Registry.Coarse, "coarse");
    (Psmr_early.Registry.Fine, "fine");
    (Psmr_early.Registry.Lockfree, "lockfree");
    (Psmr_early.Registry.Striped 4, "striped-4");
    (Psmr_early.Registry.Fifo, "fifo");
    (Psmr_early.Registry.Indexed, "indexed");
  ]

let cos impl = Backend_check.Cos (Impl impl)

let sc ?target ?(workers = 2) ?(commands = 6) ?(write_pct = 50.0)
    ?(drain = true) ?(workload_seed = 1L) () =
  Backend_check.scenario ?target ~workers ~commands ~write_pct
    ~drain_before_close:drain ~workload_seed ()

(* --- vector clocks --- *)

let test_vclock () =
  let a = Vclock.create () in
  let b = Vclock.create () in
  Alcotest.(check bool) "empty <= empty" true (Vclock.leq a b);
  Vclock.tick a 1;
  Alcotest.(check int) "tick" 1 (Vclock.get a 1);
  Alcotest.(check bool) "a not <= b" false (Vclock.leq a b);
  Alcotest.(check bool) "b <= a" true (Vclock.leq b a);
  Vclock.tick b 7;
  Alcotest.(check bool) "incomparable" false (Vclock.leq a b || Vclock.leq b a);
  Vclock.join b a;
  Alcotest.(check bool) "a <= join" true (Vclock.leq a b);
  Alcotest.(check int) "join keeps own" 1 (Vclock.get b 7);
  let c = Vclock.copy b in
  Vclock.tick b 7;
  Alcotest.(check bool) "copy is independent" true (Vclock.get c 7 = 1)

(* --- determinism --- *)

let test_replay_deterministic () =
  let s = sc ~target:(cos Psmr_early.Registry.Lockfree) () in
  (* Traced, as [psmr_check --replay] runs it: the oplog must not move a
     decision point. *)
  let replay seed =
    Explore.replay ~run:(Backend_check.run_schedule ~trace:true s) ~seed
  in
  let a = replay 987654321L in
  let b = replay 987654321L in
  Alcotest.(check bool) "oplog recorded" true
    (a.Check_platform.oplog <> []);
  Alcotest.(check bool) "same trace hash" true (a.trace_hash = b.trace_hash);
  Alcotest.(check int) "same decision count" a.decisions b.decisions;
  Alcotest.(check (list string)) "same violations" a.violations b.violations;
  Alcotest.(check bool) "completed" true a.completed;
  let c = replay 987654322L in
  Alcotest.(check bool) "different seed, different schedule" true
    (a.trace_hash <> c.trace_hash)

let test_batch_deterministic () =
  let s = sc ~target:(cos Psmr_early.Registry.Fine) () in
  let run () =
    Explore.random_walk ~run:(Backend_check.run_schedule s) ~seed:5L
      ~schedules:50 ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same schedules" a.Explore.schedules b.Explore.schedules;
  Alcotest.(check int) "same distinct" a.Explore.distinct b.Explore.distinct;
  Alcotest.(check int) "same decisions" a.Explore.decisions b.Explore.decisions;
  Alcotest.(check int) "no failures" 0 (List.length a.Explore.failures)

(* --- schedule coverage --- *)

let test_distinct_schedules () =
  let s = sc ~target:(cos Psmr_early.Registry.Lockfree) ~workers:3 () in
  let r =
    Explore.random_walk ~run:(Backend_check.run_schedule s) ~seed:42L
      ~schedules:2000 ()
  in
  Alcotest.(check int) "all schedules distinct" 2000 r.Explore.distinct;
  Alcotest.(check int) "none truncated" 0 r.Explore.truncated

(* --- oracle cleanliness on the real implementations --- *)

let clean_random impl () =
  List.iter
    (fun drain ->
      let s = sc ~target:(cos impl) ~workers:3 ~commands:8 ~drain () in
      let r =
        Explore.random_walk ~run:(Backend_check.run_schedule s) ~seed:11L
          ~schedules:800 ()
      in
      Alcotest.(check int)
        (Printf.sprintf "no failures (drain=%b)" drain)
        0
        (List.length r.Explore.failures);
      Alcotest.(check int) "all complete" 0 r.Explore.incomplete)
    [ true; false ]

let exhaustive_dfs impl () =
  let s =
    sc ~target:(cos impl) ~workers:2 ~commands:2 ~write_pct:100.0 ()
  in
  let r = Explore.dfs ~preemption_bound:1 ~max_schedules:100_000
      ~run:(Backend_check.run_schedule s) () in
  Alcotest.(check bool) "bounded tree exhausted" true r.Explore.exhausted;
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  Alcotest.(check bool) "explored more than one schedule" true
    (r.Explore.distinct > 100)

(* --- planted bugs are caught, with replayable seeds --- *)

let wtg_start_target =
  Backend_check.Cos
    (Custom ("broken-wtg-start", (module Check.Broken.Wtg_start)))

let lost_signal_target =
  Backend_check.Cos
    (Custom ("broken-lost-signal", (module Check.Broken.Lost_signal)))

let test_promotion_race_caught () =
  (* The §6.2 hazard: pseudocode-style [Wtg] start lets a remover promote a
     node whose dependency set is still under construction.  Parameters are
     the ones the hunt converges with (all-writes maximizes the conflict
     chain).  Seed 5 is the @check row's: under the scheduler runtime the
     window is rarer than under a bare get/remove loop, and it is caught
     at schedule 518. *)
  let s =
    sc ~target:wtg_start_target ~workers:3 ~commands:6 ~write_pct:100.0 ()
  in
  let r =
    Explore.random_walk ~stop_on_first:true ~run:(Backend_check.run_schedule s)
      ~seed:5L ~schedules:5000 ()
  in
  match r.Explore.failures with
  | [] -> Alcotest.fail "planted promotion race not caught within 5000 schedules"
  | f :: _ -> (
      Alcotest.(check bool) "conflict-order oracle fired" true
        (List.exists
           (fun v ->
             String.length v >= 14 && String.sub v 0 14 = "conflict order")
           f.Explore.violations);
      match f.Explore.seed with
      | None -> Alcotest.fail "random-walk failure carries no seed"
      | Some seed ->
          (* Traced, as [psmr_check --replay] runs it. *)
          let o =
            Explore.replay ~run:(Backend_check.run_schedule ~trace:true s) ~seed
          in
          Alcotest.(check bool) "oplog recorded" true
            (o.Check_platform.oplog <> []);
          Alcotest.(check (list string))
            "replay reproduces the exact violations" f.Explore.violations
            o.Check_platform.violations;
          Alcotest.(check bool) "replay follows the recorded schedule" true
            (o.Check_platform.choices = f.Explore.choices))

let test_lost_signal_caught () =
  let s =
    sc ~target:lost_signal_target ~workers:3 ~commands:8 ~write_pct:60.0 ()
  in
  let r =
    Explore.random_walk ~stop_on_first:true
      ~run:(Backend_check.run_schedule ~max_steps:3000 s)
      ~seed:7L ~schedules:500 ()
  in
  match r.Explore.failures with
  | [] -> Alcotest.fail "planted lost signal not caught within 500 schedules"
  | f :: _ ->
      Alcotest.(check bool) "reported as deadlock" true
        (List.exists
           (fun v -> String.length v >= 8 && String.sub v 0 8 = "deadlock")
           f.Explore.violations)

(* --- the self-sentinel fix cannot silently regress ---

   [Broken.No_sentinel] is the pre-hardening lock-free algorithm: insert
   does not seed [dep_on] with the node itself, so a remover that reads the
   still-growing dependency list, stalls, and performs its promoting CAS
   only after the insert has opened the node promotes it over live
   dependencies recorded after the read (see the lf_insert comment in
   lib/cos/lockfree.ml).  Uniform random walks essentially never hit the
   window — it takes three precise preemptions separated by long
   same-process stretches — so the schedule is driven by a sticky seeded
   picker: with 85% probability keep running the process that ran last,
   otherwise pick uniformly.  Seed 1596, the first of 1-20,000 that
   catches it under the scheduler runtime, is pinned: under it the broken
   variant promotes prematurely and the conflict-order oracle fires; the
   hardened lockfree and indexed implementations stay clean under the same
   picker across a seed sweep that includes it. *)

let sticky_pick rng ~last (tags : int array) =
  let last_idx = ref (-1) in
  Array.iteri (fun i t -> if !last_idx < 0 && t = last then last_idx := i) tags;
  if !last_idx >= 0 && Psmr_util.Rng.below_percent rng 85.0 then !last_idx
  else Psmr_util.Rng.int rng (Array.length tags)

let sticky_run target seed =
  let rng = Psmr_util.Rng.create ~seed in
  Backend_check.run_schedule ~max_steps:5000
    (sc ~target ~workers:2 ~commands:4 ~write_pct:100.0 ~workload_seed:1L ())
    ~pick:(fun ~last tags -> sticky_pick rng ~last tags)

let no_sentinel_target =
  Backend_check.Cos
    (Custom ("broken-no-sentinel", (module Check.Broken.No_sentinel)))

let pinned_no_sentinel_seed = 1596L

let test_no_sentinel_race_caught () =
  let o = sticky_run no_sentinel_target pinned_no_sentinel_seed in
  Alcotest.(check bool) "conflict-order oracle fired" true
    (List.exists
       (fun v -> String.length v >= 14 && String.sub v 0 14 = "conflict order")
       o.Check_platform.violations)

let test_self_sentinel_fix_holds impl () =
  for seed = 1 to 2000 do
    let o = sticky_run (cos impl) (Int64.of_int seed) in
    if o.Check_platform.violations <> [] then
      Alcotest.failf "sticky seed %d: %s" seed
        (String.concat "; " o.Check_platform.violations)
  done

(* Regression: the fifo lost-wakeup the checker found (remove signalled one
   getter where draining a closed queue must wake all).  Racing close
   against the workers used to deadlock on the very first explored
   schedule. *)
let test_fifo_close_race_regression () =
  let s =
    sc
      ~target:(cos Psmr_early.Registry.Fifo)
      ~workers:3 ~drain:false ()
  in
  let r =
    Explore.random_walk ~run:(Backend_check.run_schedule s) ~seed:12L
      ~schedules:500 ()
  in
  Alcotest.(check int) "no deadlocks" 0 (List.length r.Explore.failures)

(* --- early-scheduling scenarios (lib/early under the same checker) --- *)

let esc ?(workers = 3) ?classes ?(commands = 8) ?(keys = 3) ?(write_pct = 50.0)
    ?(cross_pct = 30.0) ?optimistic ?mis_pct ?repair ?speculate ?undo
    ?(drain = true) ?crashes ?respawn ?batch ?(workload_seed = 1L) () =
  Backend_check.scenario
    ~target:
      (Backend_check.dispatcher ?classes ?optimistic ?repair ?speculate ?undo
         ())
    ~workers ~commands ~keys ~write_pct ~cross_pct ?mis_pct
    ~drain_before_close:drain ?crashes ?respawn ?batch ~workload_seed ()

let early_walk ?stop_on_first s ~seed ~schedules =
  Explore.random_walk ?stop_on_first ~run:(Backend_check.run_schedule s) ~seed
    ~schedules ()

let test_early_replay_deterministic () =
  let s = esc ~optimistic:true ~mis_pct:40.0 () in
  let replay seed = Explore.replay ~run:(Backend_check.run_schedule s) ~seed in
  let a = replay 24680L and b = replay 24680L in
  Alcotest.(check bool) "same trace hash" true (a.trace_hash = b.trace_hash);
  Alcotest.(check int) "same decision count" a.decisions b.decisions;
  Alcotest.(check (list string)) "same violations" a.violations b.violations;
  Alcotest.(check bool) "completed" true a.completed;
  let c = replay 24681L in
  Alcotest.(check bool) "different seed, different schedule" true
    (a.trace_hash <> c.trace_hash)

let early_clean_random ?batch optimistic () =
  List.iter
    (fun drain ->
      let s = esc ~optimistic ~mis_pct:40.0 ~drain ?batch () in
      let r = early_walk s ~seed:13L ~schedules:600 in
      Alcotest.(check int)
        (Printf.sprintf "no failures (drain=%b)" drain)
        0
        (List.length r.Explore.failures);
      Alcotest.(check int) "all complete" 0 r.Explore.incomplete)
    [ true; false ]

(* Batches go through [submit_batch] on a conservative dispatcher only:
   the optimistic protocol submits and confirms one command at a time. *)
let test_early_optimistic_batch_rejected () =
  match esc ~optimistic:true ~batch:3 () with
  | _ -> Alcotest.fail "optimistic scenario with batch 3 accepted"
  | exception Invalid_argument _ -> ()

let test_early_dfs () =
  let s = esc ~workers:2 ~commands:2 ~write_pct:100.0 ~cross_pct:100.0 () in
  let r =
    Explore.dfs ~preemption_bound:1 ~max_schedules:100_000
      ~run:(Backend_check.run_schedule s) ()
  in
  Alcotest.(check bool) "bounded tree exhausted" true r.Explore.exhausted;
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  Alcotest.(check bool) "explored more than one schedule" true
    (r.Explore.distinct > 50)

(* Crash-stop inside a rendezvous: worker 1 dies at its first token fetch
   with no respawn.  On an all-cross workload over 2 single-worker classes
   every command is a 2-party barrier, so its partner arrives and waits
   forever — the class-barrier deadlock oracle must name the stalled
   barrier, and replaying the reported seed must reproduce it. *)
let crash_sc ~respawn =
  esc ~workers:2 ~commands:6 ~keys:2 ~write_pct:100.0 ~cross_pct:100.0
    ~crashes:[ (1, 1) ] ~respawn ()

let test_early_barrier_deadlock_caught () =
  let s = crash_sc ~respawn:false in
  let r = early_walk ~stop_on_first:true s ~seed:100L ~schedules:500 in
  match r.Explore.failures with
  | [] -> Alcotest.fail "crash-stop barrier deadlock not caught"
  | f :: _ -> (
      Alcotest.(check bool) "class-barrier oracle fired" true
        (List.exists
           (fun v ->
             String.length v >= 13 && String.sub v 0 13 = "class-barrier")
           f.Explore.violations);
      match f.Explore.seed with
      | None -> Alcotest.fail "random-walk failure carries no seed"
      | Some seed ->
          let o = Explore.replay ~run:(Backend_check.run_schedule s) ~seed in
          Alcotest.(check (list string))
            "replay reproduces the exact violations" f.Explore.violations
            o.Check_platform.violations)

let test_early_crash_respawn_clean () =
  let s = crash_sc ~respawn:true in
  let r = early_walk s ~seed:100L ~schedules:400 in
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  Alcotest.(check int) "all complete" 0 r.Explore.incomplete

(* The planted optimistic bug: with the repair scan disabled, a confirmed
   command queued behind a mis-speculated pending one executes in the
   speculative (wrong) order.  All-write, two-key workload at per-worker
   classes keeps every same-key pair in one FIFO, so any disorder swap of
   such a pair is a conflict-order violation; workload seed 2 is pinned to
   contain one.  The repaired dispatcher stays clean on the identical
   scenario. *)
let norepair_sc ~repair =
  esc ~workers:2 ~commands:8 ~keys:2 ~write_pct:100.0 ~cross_pct:0.0
    ~optimistic:true ~mis_pct:40.0 ~repair ~workload_seed:2L ()

let test_early_norepair_caught () =
  let s = norepair_sc ~repair:false in
  let r = early_walk ~stop_on_first:true s ~seed:100L ~schedules:200 in
  match r.Explore.failures with
  | [] -> Alcotest.fail "disabled repair not caught within 200 schedules"
  | f :: _ ->
      Alcotest.(check bool) "conflict-order oracle fired" true
        (List.exists
           (fun v ->
             String.length v >= 14 && String.sub v 0 14 = "conflict order")
           f.Explore.violations)

let test_early_repair_clean () =
  let s = norepair_sc ~repair:true in
  let r = early_walk s ~seed:100L ~schedules:300 in
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  Alcotest.(check int) "all complete" 0 r.Explore.incomplete

(* Execution-time optimism over the keyed register file: the same pinned
   all-write scenario, now executing speculatively at optimistic delivery
   with undo-based rollback at confirm mismatch.  The rollback-consistency
   oracle replays the final order sequentially and compares every
   command's observations and the final key values. *)
let spec_sc ?undo ?crashes ?respawn () =
  esc ~workers:2 ~commands:8 ~keys:2 ~write_pct:100.0 ~cross_pct:0.0
    ~optimistic:true ~mis_pct:40.0 ~speculate:true ?undo ?crashes ?respawn
    ~workload_seed:2L ()

let test_early_spec_clean () =
  let s = spec_sc () in
  let r = early_walk s ~seed:100L ~schedules:300 in
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  Alcotest.(check int) "all complete" 0 r.Explore.incomplete

(* The planted rollback bug: with [undo = false] the repair revokes and
   re-executes, but skips the register restore, so redone commands observe
   the mis-speculated writes.  Caught by rollback consistency on the very
   scenario that stays clean with undo on — the deliberately broken
   variant is otherwise schedule-for-schedule identical (the picker only
   sees tags). *)
let test_early_noundo_caught () =
  let s = spec_sc ~undo:false () in
  let r = early_walk ~stop_on_first:true s ~seed:100L ~schedules:200 in
  match r.Explore.failures with
  | [] -> Alcotest.fail "disabled undo not caught within 200 schedules"
  | f :: _ ->
      Alcotest.(check bool) "rollback-consistency oracle fired" true
        (List.exists
           (fun v ->
             String.length v >= 20
             && String.sub v 0 20 = "rollback consistency")
           f.Explore.violations)

(* Worker crashes landing inside the speculation/rollback window: the
   crashed worker requeues its reservation (a speculative pop restores the
   token to pending), respawns, and the drain still commits every command
   exactly once with consistent state. *)
let test_early_spec_crash_clean () =
  let s = spec_sc ~crashes:[ (1, 2); (2, 1) ] ~respawn:true () in
  let r = early_walk s ~seed:100L ~schedules:300 in
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  Alcotest.(check int) "all complete" 0 r.Explore.incomplete

(* Crash-stop holding a ready read.  On 3 workers with two keys, worker 3
   serves no key's class, so it owns no token and every fetch it makes is
   a ready read.  Dying at its first leaves that read at the front of the
   ready queue, where a live worker takes it: nothing strands, and every
   command completes. *)
let test_early_ready_read_crash_clean () =
  let s =
    esc ~workers:3 ~commands:6 ~keys:2 ~write_pct:30.0 ~cross_pct:100.0
      ~crashes:[ (3, 1) ] ~respawn:false ()
  in
  let r = early_walk s ~seed:3009L ~schedules:400 in
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  Alcotest.(check int) "all complete" 0 r.Explore.incomplete

(* Crash-stop of worker 1 of 2 at its first fetch, a ready read: the read
   goes back on the ready queue and worker 2 runs it, but the Direct
   token queued behind it in worker 1's own queue strands.  The oracle
   reports the lost command, and no barrier, since none is partial.
   With respawn the same crash runs clean. *)
let ready_read_crash_sc ~respawn =
  esc ~workers:2 ~commands:6 ~keys:2 ~write_pct:0.0 ~cross_pct:100.0
    ~crashes:[ (1, 1) ] ~respawn ()

let test_early_crash_strands_queue () =
  let s = ready_read_crash_sc ~respawn:false in
  let r = early_walk ~stop_on_first:true s ~seed:3010L ~schedules:500 in
  match r.Explore.failures with
  | [] -> Alcotest.fail "crash-stop stranding its queue not caught"
  | f :: _ ->
      Alcotest.(check (list string)) "the stranded command reported"
        [ "deadlock: 1 of 6 commands never executed (parallelizer blocked)" ]
        f.Explore.violations

let test_early_ready_read_crash_respawn_clean () =
  let s = ready_read_crash_sc ~respawn:true in
  let r = early_walk s ~seed:3011L ~schedules:400 in
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  Alcotest.(check int) "all complete" 0 r.Explore.incomplete

(* The planted gate bugs: writes run past the shared reads ahead of them
   ([write_gate = false]), or a shared read is ready before the write
   ahead of it completes ([read_gate = false]).  The read-heavy cross-key
   scenario on 2 workers (the @check-early rows) is caught from the
   pinned seed by the conflict-order and rollback-consistency oracles;
   the gated dispatcher stays clean on it. *)
let gate_sc ?(write_gate = true) ?(read_gate = true) () =
  Backend_check.scenario
    ~target:(Backend_check.dispatcher ~write_gate ~read_gate ())
    ~workers:2 ~write_pct:30.0 ~cross_pct:60.0 ~workload_seed:1L ()

let gate_bug_caught what s () =
  let r = early_walk ~stop_on_first:true s ~seed:91L ~schedules:500 in
  match r.Explore.failures with
  | [] -> Alcotest.failf "disabled %s gate not caught within 500 schedules" what
  | f :: _ ->
      let fired prefix =
        List.exists
          (fun v ->
            String.length v >= String.length prefix
            && String.sub v 0 (String.length prefix) = prefix)
          f.Explore.violations
      in
      Alcotest.(check bool) "conflict-order oracle fired" true
        (fired "conflict order");
      Alcotest.(check bool) "rollback-consistency oracle fired" true
        (fired "rollback consistency")

let test_early_gate_clean () =
  let s = gate_sc () in
  let r = early_walk s ~seed:91L ~schedules:400 in
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  Alcotest.(check int) "all complete" 0 r.Explore.incomplete

(* --- the run scaffold (Check_platform.run) --- *)

(* A run cut off by the step bound stops mid-program: no post-run oracle
   may judge it, so the stuck processes are not reported as a deadlock. *)
let test_truncated_skips_oracles () =
  let s = sc ~target:(cos Psmr_early.Registry.Lockfree) () in
  let o =
    Explore.replay ~run:(Backend_check.run_schedule ~max_steps:20 s) ~seed:1L
  in
  Alcotest.(check bool) "truncated" true o.truncated;
  Alcotest.(check bool) "not completed" false o.completed;
  Alcotest.(check (list string)) "no oracle verdict" [] o.violations;
  Alcotest.(check int) "one choice per allowed step" 20
    (Array.length o.choices)

(* The exploration the last @check row runs: every schedule of the planted
   no-sentinel variant hits a 150-step bound, so no oracle ran and
   psmr_check must call the result inconclusive, not clean. *)
let test_all_truncated_exploration () =
  let s =
    Backend_check.scenario ~target:no_sentinel_target ~workload_seed:1L ()
  in
  let r =
    Explore.random_walk ~stop_on_first:true
      ~run:(Backend_check.run_schedule ~max_steps:150 s)
      ~seed:9L ~schedules:3000 ()
  in
  Alcotest.(check int) "every schedule explored" 3000 r.Explore.schedules;
  Alcotest.(check int) "every schedule truncated" r.Explore.schedules
    r.Explore.truncated;
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures)

(* An exception escaping a process ends the run as a violation; the
   scenario's oracles still run, after it. *)
let test_escaping_exception_reported () =
  let o =
    Check_platform.run ~pick:(fun ~last:_ _ -> 0)
    @@ fun _ (module P : Psmr_platform.Platform_intf.S) ~viol ->
    P.spawn (fun () ->
        P.yield ();
        failwith "boom");
    fun () ->
      viol "oracle ran";
      false
  in
  Alcotest.(check (list string))
    "exception, then the oracle's report"
    [ "uncaught exception: Failure(\"boom\")"; "oracle ran" ]
    o.violations;
  Alcotest.(check bool) "not completed" false o.completed

(* An unlock by a process that does not hold the mutex raises, as on real
   threads, so an explored schedule reports it. *)
let test_stray_unlock_reported () =
  let o =
    Check_platform.run ~pick:(fun ~last:_ _ -> 0)
    @@ fun _ (module P : Psmr_platform.Platform_intf.S) ~viol:_ ->
    let m = P.Mutex.create () in
    P.spawn (fun () ->
        P.Mutex.lock m;
        P.yield ();
        P.Mutex.unlock m);
    P.spawn (fun () ->
        P.yield ();
        P.Mutex.unlock m);
    fun () -> true
  in
  Alcotest.(check (list string))
    "the stray unlock"
    [ "uncaught exception: Sys_error(\"Mutex.unlock: Operation not permitted\")" ]
    o.violations

(* --- schedule identity, pinned per checker family ---

   One fixed-seed schedule per family, compared with the decision count,
   schedule hash and violations the checker produced when these values
   were captured.  Replaying a run twice in one build cannot notice a
   change that moves a spawn, a decision point or an oracle; these can. *)

module Partition_check = Check.Partition_check

let pinned name ~decisions ~trace_hash ~violations (o : Check_platform.outcome)
    =
  Alcotest.(check int) (name ^ ": decisions") decisions o.decisions;
  Alcotest.(check int64) (name ^ ": trace hash") trace_hash o.trace_hash;
  Alcotest.(check (list string)) (name ^ ": violations") violations
    o.violations

(* Re-pinned when COS scenarios moved under the scheduler runtime: the
   pool's workers, its counters and its crash requeue run where a bare
   get/remove loop ran. *)
let test_pinned_lockfree_batch_crash () =
  let s =
    Backend_check.scenario ~target:(cos Psmr_early.Registry.Lockfree)
      ~batch:3 ~crashes:[ (1, 2) ] ~workload_seed:1L ()
  in
  Explore.replay ~run:(Backend_check.run_schedule s) ~seed:2201L
  |> pinned "lockfree batch 3 + crash" ~decisions:293
       ~trace_hash:4987892332009988514L ~violations:[]

(* Re-pinned when shared reads became one entry: each entry holds one
   more atomic cell, and the worker loop parks through the ready queue. *)
let test_pinned_early_spec_crash () =
  let s =
    Backend_check.scenario
      ~target:(Backend_check.dispatcher ~optimistic:true ~speculate:true ())
      ~crashes:[ (1, 2) ] ~workload_seed:1L ()
  in
  Explore.replay ~run:(Backend_check.run_schedule s) ~seed:2202L
  |> pinned "early-opt speculate + crash" ~decisions:248
       ~trace_hash:(-5586707427947918545L) ~violations:[]

let test_pinned_part4_repeats () =
  let s =
    Partition_check.scenario ~partitions:4 ~commands:12 ~cross_pct:60.0
      ~workload_seed:1L ()
  in
  Alcotest.(check bool) "some stream repeats a leg" true
    (Array.exists
       (fun l -> List.length (List.sort_uniq compare l) < List.length l)
       s.streams);
  Explore.replay ~run:(Partition_check.run_schedule s) ~seed:2203L
  |> pinned "part-4 with repeated legs" ~decisions:91
       ~trace_hash:775230188207648316L ~violations:[]

let test_pinned_part_nobarrier () =
  let s =
    Partition_check.scenario ~replicas:3 ~commands:10 ~cross_pct:60.0
      ~no_barrier:true ~workload_seed:1L ()
  in
  Explore.replay ~run:(Partition_check.run_schedule s)
    ~seed:5833679380957638813L
  |> pinned "broken-part-nobarrier" ~decisions:76
       ~trace_hash:(-8250374911145456486L)
       ~violations:
         [
           "divergence: partition 1 ordered [9;3;6;0;5;7;2;1;8] at replica 1 \
            but [9;3;6;0;8;5;7;2;1] at replica 0";
           "divergence: partition 1 ordered [9;3;6;0;5;7;2;8;1] at replica 2 \
            but [9;3;6;0;8;5;7;2;1] at replica 0";
         ]

let per_impl name f =
  List.map
    (fun (impl, label) ->
      Alcotest.test_case (Printf.sprintf "%s [%s]" name label) `Quick (f impl))
    impls

let () =
  Alcotest.run "check"
    [
      ("vclock", [ Alcotest.test_case "ordering" `Quick test_vclock ]);
      ( "determinism",
        [
          Alcotest.test_case "replay" `Quick test_replay_deterministic;
          Alcotest.test_case "batch" `Quick test_batch_deterministic;
          Alcotest.test_case "coverage" `Quick test_distinct_schedules;
        ] );
      ("random-walk", per_impl "clean, drain and racing close" clean_random);
      ("dfs", per_impl "bound-1 tree exhausted, clean" exhaustive_dfs);
      ( "planted-bugs",
        [
          Alcotest.test_case "promotion race caught + replay" `Quick
            test_promotion_race_caught;
          Alcotest.test_case "lost signal caught as deadlock" `Quick
            test_lost_signal_caught;
          Alcotest.test_case "no-sentinel race caught (pinned sticky seed)"
            `Quick test_no_sentinel_race_caught;
          Alcotest.test_case "self-sentinel fix holds [lockfree]" `Quick
            (test_self_sentinel_fix_holds Psmr_early.Registry.Lockfree);
          Alcotest.test_case "self-sentinel fix holds [indexed]" `Quick
            (test_self_sentinel_fix_holds Psmr_early.Registry.Indexed);
          Alcotest.test_case "fifo close race regression" `Quick
            test_fifo_close_race_regression;
        ] );
      ( "early",
        [
          Alcotest.test_case "replay deterministic" `Quick
            test_early_replay_deterministic;
          Alcotest.test_case "clean, conservative" `Quick
            (early_clean_random false);
          Alcotest.test_case "clean, optimistic" `Quick
            (early_clean_random true);
          Alcotest.test_case "clean, conservative, submit_batch of 3" `Quick
            (early_clean_random ~batch:3 false);
          Alcotest.test_case "optimistic batches rejected" `Quick
            test_early_optimistic_batch_rejected;
          Alcotest.test_case "dfs bound-1 tree exhausted, clean" `Quick
            test_early_dfs;
          Alcotest.test_case "crash-stop barrier deadlock caught + replay"
            `Quick test_early_barrier_deadlock_caught;
          Alcotest.test_case "crash + respawn drains clean" `Quick
            test_early_crash_respawn_clean;
          Alcotest.test_case "disabled repair caught (conflict order)" `Quick
            test_early_norepair_caught;
          Alcotest.test_case "repair keeps identical scenario clean" `Quick
            test_early_repair_clean;
          Alcotest.test_case "clean, speculative execution + rollback" `Quick
            test_early_spec_clean;
          Alcotest.test_case "disabled undo caught (rollback consistency)"
            `Quick test_early_noundo_caught;
          Alcotest.test_case "crashes inside the repair window drain clean"
            `Quick test_early_spec_crash_clean;
          Alcotest.test_case "crash-stop holding a ready read runs clean"
            `Quick test_early_ready_read_crash_clean;
          Alcotest.test_case "crash-stop strands its own queue, caught" `Quick
            test_early_crash_strands_queue;
          Alcotest.test_case "crash + respawn holding a ready read clean"
            `Quick test_early_ready_read_crash_respawn_clean;
          Alcotest.test_case "disabled write gate caught (both oracles)"
            `Quick
            (gate_bug_caught "write" (gate_sc ~write_gate:false ()));
          Alcotest.test_case "disabled read gate caught (both oracles)"
            `Quick
            (gate_bug_caught "read" (gate_sc ~read_gate:false ()));
          Alcotest.test_case "both gates keep identical scenario clean"
            `Quick test_early_gate_clean;
        ] );
      ( "scaffold",
        [
          Alcotest.test_case "truncated run skips the oracles" `Quick
            test_truncated_skips_oracles;
          Alcotest.test_case "escaping exception is a violation" `Quick
            test_escaping_exception_reported;
          Alcotest.test_case "all-truncated exploration (the @check row)"
            `Quick test_all_truncated_exploration;
          Alcotest.test_case "stray unlock is a violation" `Quick
            test_stray_unlock_reported;
        ] );
      ( "schedule-identity",
        [
          Alcotest.test_case "lockfree, batch 3, worker crash" `Quick
            test_pinned_lockfree_batch_crash;
          Alcotest.test_case "early-opt, speculate, worker crash" `Quick
            test_pinned_early_spec_crash;
          Alcotest.test_case "part-4, repeated legs" `Quick
            test_pinned_part4_repeats;
          Alcotest.test_case "broken-part-nobarrier" `Quick
            test_pinned_part_nobarrier;
        ] );
    ]
