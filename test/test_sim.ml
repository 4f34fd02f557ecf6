(* Tests for the discrete-event engine and its synchronization primitives. *)

open Psmr_sim

let test_delay_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay 2.0;
      log := ("b", Engine.now e) :: !log);
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      log := ("a", Engine.now e) :: !log);
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "events in time order"
    [ ("a", 1.0); ("b", 2.0) ]
    (List.rev !log)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.spawn e (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo at equal time" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_run_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.spawn e (fun () ->
      let rec tick () =
        incr hits;
        Engine.delay 1.0;
        tick ()
      in
      tick ());
  Engine.run ~until:10.5 e;
  Alcotest.(check int) "ticks before cutoff" 11 !hits;
  Alcotest.(check (float 1e-9)) "clock at limit" 10.5 (Engine.now e)

let test_suspend_resume () =
  let e = Engine.create () in
  let resume_ref = ref (fun () -> ()) in
  let state = ref "init" in
  Engine.spawn e (fun () ->
      Engine.suspend (fun resume -> resume_ref := resume);
      state := "resumed");
  Engine.spawn e ~delay:5.0 (fun () -> !resume_ref ());
  Engine.run e;
  Alcotest.(check string) "resumed" "resumed" !state

let test_exception_propagates () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> failwith "boom");
  Alcotest.check_raises "propagates" (Failure "boom") (fun () -> Engine.run e)

let test_nested_spawn () =
  let e = Engine.create () in
  let total = ref 0 in
  Engine.spawn e (fun () ->
      for _ = 1 to 3 do
        Engine.spawn e (fun () ->
            Engine.delay 0.5;
            incr total)
      done);
  Engine.run e;
  Alcotest.(check int) "children ran" 3 !total

let test_events_counted () =
  let e = Engine.create () in
  for _ = 1 to 5 do
    Engine.spawn e (fun () -> Engine.delay 0.1)
  done;
  Engine.run e;
  (* Each process costs at least two events: start and post-delay resume. *)
  Alcotest.(check bool) "counted" true (Engine.events_executed e >= 10)

let test_negative_delay_clamped () =
  let e = Engine.create () in
  let at = ref (-1.0) in
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      Engine.schedule e ~delay:(-5.0) (fun () -> at := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "clamped to now" 1.0 !at

let test_suspended_forever_is_fine () =
  (* A process parked without a resume simply never runs again; the engine
     still terminates when the queue drains — the normal fate of an idle
     worker at the end of an experiment. *)
  let e = Engine.create () in
  let after_park = ref false in
  Engine.spawn e (fun () ->
      Engine.suspend (fun _resume -> ());
      after_park := true);
  Engine.spawn e (fun () -> Engine.delay 1.0);
  Engine.run e;
  Alcotest.(check bool) "never resumed" false !after_park;
  Alcotest.(check (float 1e-9)) "time advanced past it" 1.0 (Engine.now e)

(* --- simulated synchronization --- *)

let costs = Costs.zero

(* The primitive tests below run on both simulated platforms, which share
   one implementation of the primitives ([Sim_sync.Make]).  A runner builds
   a fresh platform with the given costs, lets the body spawn processes
   through it, and runs them to completion. *)
type runner = Costs.t -> ((module Psmr_platform.Platform_intf.S) -> unit) -> unit

let timed : runner =
 fun costs body ->
  let e = Engine.create () in
  body (Sim_platform.make e costs);
  Engine.run e

(* The checker's platform under one fixed schedule: the first runnable
   process at every decision point.  Costs do not apply there. *)
let checked : runner =
 fun _ body ->
  let o =
    Psmr_checker.Check_platform.run
      ~pick:(fun ~last:_ _ -> 0)
      (fun _ p ~viol:_ ->
        body p;
        fun () -> true)
  in
  Alcotest.(check (list string)) "no violation" [] o.violations;
  Alcotest.(check bool) "not truncated" false o.truncated

let test_mutex_exclusion (run : runner) () =
  let inside = ref 0 and max_inside = ref 0 and done_count = ref 0 in
  run { costs with mutex_lock = 0.001 } (fun (module P) ->
      let m = P.Mutex.create () in
      for _ = 1 to 10 do
        P.spawn (fun () ->
            P.Mutex.lock m;
            incr inside;
            if !inside > !max_inside then max_inside := !inside;
            P.sleep 0.01;
            decr inside;
            P.Mutex.unlock m;
            incr done_count)
      done);
  Alcotest.(check int) "all finished" 10 !done_count;
  Alcotest.(check int) "mutual exclusion" 1 !max_inside

let test_mutex_fifo_handoff (run : runner) () =
  let order = ref [] in
  run costs (fun (module P) ->
      let m = P.Mutex.create () in
      P.spawn (fun () ->
          P.Mutex.lock m;
          P.sleep 1.0;
          P.Mutex.unlock m);
      for i = 1 to 3 do
        P.after (0.1 *. float_of_int i) (fun () ->
            P.Mutex.lock m;
            order := i :: !order;
            P.Mutex.unlock m)
      done);
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (List.rev !order)

let test_semaphore_counting (run : runner) () =
  let concurrent = ref 0 and peak = ref 0 in
  run costs (fun (module P) ->
      let s = P.Semaphore.create 2 in
      for _ = 1 to 6 do
        P.spawn (fun () ->
            P.Semaphore.acquire s;
            incr concurrent;
            if !concurrent > !peak then peak := !concurrent;
            P.sleep 1.0;
            decr concurrent;
            P.Semaphore.release s)
      done);
  Alcotest.(check int) "at most 2 inside" 2 !peak

let test_semaphore_release_n (run : runner) () =
  let woken = ref 0 in
  run costs (fun (module P) ->
      let s = P.Semaphore.create 0 in
      for _ = 1 to 3 do
        P.spawn (fun () ->
            P.Semaphore.acquire s;
            incr woken)
      done;
      P.after 1.0 (fun () -> P.Semaphore.release ~n:3 s));
  Alcotest.(check int) "all three woken" 3 !woken

let test_condition_signal_broadcast (run : runner) () =
  let ready = ref false and woken = ref 0 in
  run costs (fun (module P) ->
      let m = P.Mutex.create () in
      let c = P.Condition.create () in
      for _ = 1 to 4 do
        P.spawn (fun () ->
            P.Mutex.lock m;
            while not !ready do
              P.Condition.wait c m
            done;
            incr woken;
            P.Mutex.unlock m)
      done;
      P.after 1.0 (fun () ->
          P.Mutex.lock m;
          ready := true;
          P.Condition.broadcast c;
          P.Mutex.unlock m));
  Alcotest.(check int) "broadcast wakes all" 4 !woken

(* Unlocking a mutex the caller does not hold, or waiting on it, raises as
   OCaml's error-checking mutex does; the holder keeps it meanwhile. *)
let test_unlock_not_owner (run : runner) () =
  let errors = ref [] and relocked = ref false in
  run costs (fun (module P) ->
      let m = P.Mutex.create () and c = P.Condition.create () in
      let held = P.Semaphore.create 0 and tried = P.Semaphore.create 0 in
      let attempt f = try f () with Sys_error e -> errors := e :: !errors in
      P.spawn (fun () ->
          attempt (fun () -> P.Mutex.unlock m);
          P.Mutex.lock m;
          P.Semaphore.release held;
          P.Semaphore.acquire tried;
          P.Mutex.unlock m);
      P.spawn (fun () ->
          P.Semaphore.acquire held;
          attempt (fun () -> P.Mutex.unlock m);
          attempt (fun () -> P.Condition.wait c m);
          P.Semaphore.release tried;
          P.Mutex.lock m;
          relocked := true;
          P.Mutex.unlock m));
  Alcotest.(check (list string))
    "each stray unlock or wait raised"
    [
      "Mutex.unlock: Operation not permitted";
      "Mutex.unlock: Operation not permitted";
      "Condition.wait: Operation not permitted";
    ]
    (List.rev !errors);
  Alcotest.(check bool) "the holder released it" true !relocked

let sync_tests run =
  [
    Alcotest.test_case "mutex exclusion" `Quick (test_mutex_exclusion run);
    Alcotest.test_case "mutex fifo handoff" `Quick (test_mutex_fifo_handoff run);
    Alcotest.test_case "semaphore counting" `Quick (test_semaphore_counting run);
    Alcotest.test_case "semaphore release n" `Quick (test_semaphore_release_n run);
    Alcotest.test_case "condition broadcast" `Quick
      (test_condition_signal_broadcast run);
  ]

let test_cpu_capacity () =
  let e = Engine.create () in
  let cpu = Sim_sync.Cpu.create ~cores:4 in
  let t_done = ref 0.0 in
  let finished = ref 0 in
  for _ = 1 to 8 do
    Engine.spawn e (fun () ->
        Sim_sync.Cpu.use cpu 1.0;
        incr finished;
        t_done := Engine.now e)
  done;
  Engine.run e;
  Alcotest.(check int) "all ran" 8 !finished;
  (* 8 unit-length jobs on 4 cores need 2 time units. *)
  Alcotest.(check (float 1e-9)) "makespan" 2.0 !t_done

let test_costs_advance_clock () =
  let e = Engine.create () in
  let (module P) =
    Sim_platform.make e { costs with mutex_lock = 0.25; mutex_unlock = 0.25 }
  in
  let m = P.Mutex.create () in
  P.spawn (fun () ->
      P.Mutex.lock m;
      P.Mutex.unlock m);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "lock+unlock cost" 0.5 (Engine.now e)

let test_wakeup_cost () =
  let e = Engine.create () in
  let (module P) = Sim_platform.make e { costs with wakeup = 1.0 } in
  let m = P.Mutex.create () in
  let t_second = ref 0.0 in
  P.spawn (fun () ->
      P.Mutex.lock m;
      P.sleep 2.0;
      P.Mutex.unlock m);
  P.after 0.5 (fun () ->
      P.Mutex.lock m;
      t_second := P.now ();
      P.Mutex.unlock m);
  Engine.run e;
  (* Unlock at t=2, plus wakeup latency 1.0. *)
  Alcotest.(check (float 1e-9)) "wakeup charged" 3.0 !t_second

(* --- the platform packaging --- *)

let test_platform_atomics () =
  let e = Engine.create () in
  let (module P) = Sim_platform.make e Costs.default in
  let ok = ref false in
  Engine.spawn e (fun () ->
      let a = P.Atomic.make 0 in
      ignore (P.Atomic.fetch_and_add a 5 : int);
      let swapped = P.Atomic.compare_and_set a 5 9 in
      let old = P.Atomic.exchange a 1 in
      ok := swapped && old = 9 && P.Atomic.get a = 1);
  Engine.run e;
  Alcotest.(check bool) "atomic ops" true !ok

let test_platform_after () =
  let e = Engine.create () in
  let (module P) = Sim_platform.make e Costs.zero in
  let fired_at = ref 0.0 in
  Engine.spawn e (fun () -> P.after 3.0 (fun () -> fired_at := P.now ()));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "after fires at delay" 3.0 !fired_at

let test_determinism () =
  let run_once () =
    let e = Engine.create () in
    let (module P) = Sim_platform.make e Costs.default in
    let trace = Buffer.create 64 in
    Engine.spawn e (fun () ->
        let m = P.Mutex.create () in
        for i = 1 to 5 do
          P.spawn (fun () ->
              P.Mutex.lock m;
              P.sleep 0.001;
              Buffer.add_string trace (Printf.sprintf "%d@%.6f;" i (P.now ()));
              P.Mutex.unlock m)
        done);
    Engine.run e;
    (Buffer.contents trace, Engine.now e)
  in
  let a = run_once () and b = run_once () in
  Alcotest.(check (pair string (float 0.0))) "identical runs" a b

(* --- the event queue against a sorted-list model --- *)

(* Drive [Event_queue] through its public functions under exactly the
   discipline the engine guarantees (seq strictly increasing, [now]
   monotone, every push at [time >= now], [now] advancing to each popped
   event's time) and check every pop against a naive sorted list.  Op
   encoding from the generator: 0 pops, k in 1..8 pushes with delay
   (k - 1) * 0.25e-3 — so k = 1 is a same-time push, exercising the
   lane. *)
let prop_queue_matches_model =
  QCheck.Test.make ~name:"event queue matches sorted-list model" ~count:500
    QCheck.(list (int_bound 8))
    (fun ops ->
      let module Q = Psmr_sim.Event_queue in
      let q = Q.create () in
      let model = ref [] (* (time, seq) sorted ascending *) in
      let now = ref 0.0 in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          if op = 0 then (
            match !model with
            | [] -> if not (Q.is_empty q) then ok := false
            | (mt, ms) :: rest ->
                if Q.is_empty q then ok := false
                else begin
                  if Q.min_time q <> mt then ok := false;
                  let t = Q.min_time q in
                  Q.pop q;
                  if q.Q.out_seq <> ms || q.Q.out_tag <> ms then ok := false;
                  ignore (Q.take_payload q : Q.payload);
                  model := rest;
                  now := t
                end)
          else begin
            incr seq;
            let time = !now +. (float_of_int (op - 1) *. 0.25e-3) in
            Q.push q ~now:!now ~time ~seq:!seq ~tag:!seq Q.Noop;
            model :=
              List.sort
                (fun (t1, s1) (t2, s2) ->
                  if t1 <> t2 then Float.compare t1 t2 else Int.compare s1 s2)
                ((time, !seq) :: !model)
          end)
        ops;
      (* Drain: the full remaining order must match the model. *)
      List.iter
        (fun (mt, ms) ->
          if Q.is_empty q || Q.min_time q <> mt then ok := false
          else begin
            Q.pop q;
            if q.Q.out_seq <> ms then ok := false;
            ignore (Q.take_payload q : Q.payload);
            now := mt
          end)
        !model;
      !ok && Q.is_empty q)

let test_queue_lane_bypass () =
  let module Q = Psmr_sim.Event_queue in
  let q = Q.create () in
  (* Same-time pushes go to the lane, future pushes to the heap. *)
  Q.push q ~now:0.0 ~time:0.0 ~seq:1 ~tag:1 Q.Noop;
  Q.push q ~now:0.0 ~time:0.0 ~seq:2 ~tag:2 Q.Noop;
  Q.push q ~now:0.0 ~time:1.0 ~seq:3 ~tag:3 Q.Noop;
  Alcotest.(check int) "lane holds same-time" 2 q.Q.lane_n;
  Alcotest.(check int) "heap holds future" 1 q.Q.heap_n;
  Alcotest.(check (float 0.0)) "min is lane" 0.0 (Q.min_time q);
  Q.pop q;
  Alcotest.(check int) "lane fifo 1" 1 q.Q.out_seq;
  Q.pop q;
  Alcotest.(check int) "lane fifo 2" 2 q.Q.out_seq;
  Q.pop q;
  Alcotest.(check int) "then heap" 3 q.Q.out_seq;
  Alcotest.(check bool) "drained" true (Q.is_empty q)

let test_queue_heap_beats_lane_on_tie () =
  let module Q = Psmr_sim.Event_queue in
  let q = Q.create () in
  (* An event pushed for time 1.0 while the clock was 0.0 (heap) must pop
     before an event pushed at time 1.0 once the clock reached it (lane):
     the heap entry's seq is necessarily smaller. *)
  Q.push q ~now:0.0 ~time:1.0 ~seq:1 ~tag:1 Q.Noop;
  Q.push q ~now:1.0 ~time:1.0 ~seq:2 ~tag:2 Q.Noop;
  Alcotest.(check (float 0.0)) "tie time" 1.0 (Q.min_time q);
  Q.pop q;
  Alcotest.(check int) "heap entry first" 1 q.Q.out_seq;
  Q.pop q;
  Alcotest.(check int) "lane entry second" 2 q.Q.out_seq

(* The queue proper allocates nothing per event in steady state: once the
   arrays have grown to the working-set size, push/pop churn must not move
   the minor-heap allocation pointer (payload handling included — [Noop]
   is an immediate). *)
let test_queue_zero_alloc_steady_state () =
  let module Q = Psmr_sim.Event_queue in
  let q = Q.create () in
  let seq = ref 0 in
  (* Times are float literals (statically boxed): a computed float would
     be boxed at each [Q.push] call boundary and the measurement would see
     the test's own allocation, not the queue's. *)
  let churn n =
    for _ = 1 to n do
      incr seq;
      Q.push q ~now:0.0 ~time:1.0 ~seq:!seq ~tag:0 Q.Noop;
      incr seq;
      Q.push q ~now:0.0 ~time:0.0 ~seq:!seq ~tag:0 Q.Noop;
      Q.pop q;
      ignore (Q.take_payload q : Q.payload);
      Q.pop q;
      ignore (Q.take_payload q : Q.payload)
    done
  in
  (* Warm: grow the arrays and leave a populated heap so the sift loops
     run at depth during the measured churn. *)
  for _ = 1 to 1_000 do
    incr seq;
    Q.push q ~now:0.0 ~time:1.0 ~seq:!seq ~tag:0 Q.Noop
  done;
  churn 1_000;
  let before = Gc.minor_words () in
  churn 10_000;
  let words = Gc.minor_words () -. before in
  if words > 256.0 then
    Alcotest.failf "steady-state churn allocated %.0f minor words" words

(* Engine steady state: re-scheduling a preallocated closure costs a
   bounded, small number of words per event (the [Thunk] payload box and
   the optional-argument wrapper — no queue cell, no per-event closure).
   The bound is loose on purpose: it catches a regression to per-event
   cells or boxed-float storage, not compiler-version drift. *)
let test_engine_scheduling_alloc_bound () =
  let e = Engine.create () in
  let events = 50_000 in
  let remaining = ref events in
  let rec tick () =
    if !remaining > 0 then begin
      decr remaining;
      Engine.schedule e ~delay:1e-6 tick
    end
  in
  Engine.schedule e tick;
  let before = Gc.minor_words () in
  Engine.run e;
  let words = (Gc.minor_words () -. before) /. float_of_int events in
  if words > 16.0 then
    Alcotest.failf "scheduling allocated %.1f words/event" words

(* --- golden event-order traces --- *)

(* A seeded harness run's entire scheduling history, folded to one string:
   an MD5 over the (time, tag) pair of every executed event — hex floats,
   so the digest sees exact bits — plus the final clock and event count.
   Pinned below for all six COS implementations on the paper's list
   workload, and for both early-scheduling modes and two COS
   implementations on the keyed workload.  Any engine change that reorders, adds or drops an event, or
   shifts virtual time by a single ULP, breaks these; that is the contract
   an engine refactor must clear before touching anything else. *)
let trace_digest run =
  let buf = Buffer.create (1 lsl 16) in
  let captured = ref None in
  let probe_engine e =
    captured := Some e;
    Engine.set_tracer e
      (Some (fun time tag -> Buffer.add_string buf (Printf.sprintf "%h %d\n" time tag)))
  in
  run ~probe_engine;
  let e = Option.get !captured in
  Printf.sprintf "%s clock=%h events=%d"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))
    (Engine.now e) (Engine.events_executed e)

let golden_spec = { Psmr_workload.Workload.write_pct = 15.0; cost = Light }

(* One of every worker fault inside the measured window: worker 2 crashes
   and respawns, worker 3 stalls once, worker 4 runs slow from 12 ms on. *)
let golden_faults =
  Psmr_fault.Schedule.parse_exn
    "worker-crash=2@0.008+0.002,worker-stall=3@0.01:0.0005,\
     worker-slow=4@0.012:0.000002"

let golden_standalone ?faults impl ~probe_engine =
  ignore
    (Psmr_harness.Standalone.run ~backend:(Cos impl) ~workers:8
       ~workload:(Paper golden_spec) ~duration:0.02 ~warmup:0.005 ~seed:7L
       ?faults ~probe_engine ()
      : Psmr_harness.Standalone.result)

let golden_keyed ?faults name ~probe_engine =
  let backend = Option.get (Psmr_early.Registry.of_string name) in
  (* mis_pct > 0 so the early-opt trace exercises the repair path. *)
  let spec =
    { Psmr_workload.Workload.Keyed.low_conflict with keys = 64; mis_pct = 10.0 }
  in
  ignore
    (Psmr_harness.Standalone.run ~backend ~workers:8 ~workload:(Keyed spec)
       ~duration:0.02 ~warmup:0.005 ~seed:7L ?faults ~probe_engine ()
      : Psmr_harness.Standalone.result)

(* The replicated deployment as [Smr.run] builds it — the replica's
   batched submit path into the executor backend — with 20 clients. *)
let golden_smr mode ~probe_engine =
  let open Psmr_harness in
  Sim_run.with_sim ~probe_engine @@ fun sim ->
  ignore
    (Smr.deploy sim ~mode ~spec:golden_spec ~clients:20 ~cmds_per_request:10
       ~client_timeout:Model.smr_client_timeout ~seed:7L
       ~on_reply:(fun _ -> ())
      : Smr.deployment);
  ignore (Sim_run.run sim ~warmup:0.005 ~duration:0.02 : float)

let golden_cases =
  let cos name impl = (name, fun ~probe_engine -> golden_standalone impl ~probe_engine) in
  let keyed name = (name, fun ~probe_engine -> golden_keyed name ~probe_engine) in
  let faults = golden_faults in
  [
    cos "standalone-coarse" Psmr_early.Registry.Coarse;
    cos "standalone-fine" Psmr_early.Registry.Fine;
    cos "standalone-lockfree" Psmr_early.Registry.Lockfree;
    cos "standalone-fifo" Psmr_early.Registry.Fifo;
    cos "standalone-striped-64" (Psmr_early.Registry.Striped 64);
    cos "standalone-indexed" Psmr_early.Registry.Indexed;
    keyed "early";
    keyed "early-opt";
    keyed "lockfree";
    keyed "indexed";
    ( "faults-early",
      fun ~probe_engine -> golden_keyed ~faults "early" ~probe_engine );
    ( "faults-lockfree",
      fun ~probe_engine ->
        golden_standalone ~faults Psmr_early.Registry.Lockfree ~probe_engine );
    ( "smr-early",
      golden_smr (Parallel_early { workers = 8; classes = None }) );
    ( "smr-lockfree",
      golden_smr (Parallel { impl = Psmr_early.Registry.Lockfree; workers = 8 })
    );
  ]

(* Captured from the pre-fast-path engine (PR 7 baseline) and required to
   hold forever after.  Refresh only for a change that is *supposed* to
   alter virtual-time behavior — and say so loudly in the PR. *)
let golden_expected =
  [
    ( "standalone-coarse",
      "2a65a90e9216bc9bb3daab38dfc0670f clock=0x1.999999999999ap-6 \
       events=102905" );
    ( "standalone-fine",
      "8c0cdf3698970d5853f7d590ccab1aa0 clock=0x1.999999999999ap-6 \
       events=245391" );
    ( "standalone-lockfree",
      "52b892feddf472db206054c8dac7bd02 clock=0x1.999999999999ap-6 \
       events=635183" );
    ( "standalone-fifo",
      "9aad2dff4b5cf5db6156b39f7028cdf1 clock=0x1.999999999999ap-6 \
       events=75129" );
    ( "standalone-striped-64",
      "4b19ebdf24dc653c1c5ee8acb26c3e35 clock=0x1.999999999999ap-6 \
       events=228614" );
    ( "standalone-indexed",
      "f9c2c5c9e4a2b6e300637de6d0897d99 clock=0x1.999999999999ap-6 \
       events=1097930" );
    (* Refreshed when read-only cross-class commands (the keyed workload's
       two-key reads) moved from exclusive to shared rendezvous behind a
       per-queue write gate — the virtual-time behavior of both early modes
       changed by design — again, for the conservative mode only, when
       the last arriver at such a read began handing it to an idle member
       whenever another shared read follows it in its queue, and again
       for both modes when such a read became one entry without tokens,
       waiting on its classes' last writes and run from the shared ready
       queue. *)
    ( "early",
      "3ec926c1b29f67da714a6a407fa8e862 clock=0x1.999999999999ap-6 \
       events=353040" );
    (* Also refreshed earlier, when the optimistic protocol gained
       execution-time speculation with rollback (pipelined submit/confirm
       + undo log + claim-word commit).  The COS digests are unchanged
       since they were pinned. *)
    ( "early-opt",
      "846ef763bd2e081122e662cf38802096 clock=0x1.999999999999ap-6 \
       events=311921" );
    (* The keyed stream through the registry's generic COS path: multi-key
       footprints, which no paper-workload digest exercises. *)
    ( "lockfree",
      "8257df9e9a52683d516afd402fb2e17d clock=0x1.999999999999ap-6 \
       events=382004" );
    ( "indexed",
      "953b84cc1e8f755e2c2ac7428c6c45b8 clock=0x1.999999999999ap-6 \
       events=1412288" );
    (* Worker faults on both backend families, and the replicated
       deployment: pinned at the commit before the three worker loops
       became one [Psmr_sched.Pool].  faults-early refreshed when the
       keyed workload's two-key reads became one entry run from the ready
       queue, like early.  Both faults-* digests refreshed when a slowed
       worker began sleeping before the execution, as a stalled one does,
       instead of after it (worker 4's worker-slow). *)
    ( "faults-early",
      "b4ff84332c29cc721927838c9154e587 clock=0x1.999999999999ap-6 \
       events=335554" );
    ( "faults-lockfree",
      "82bf947b48687d69fd5b8a7147492b7d clock=0x1.999999999999ap-6 \
       events=651795" );
    (* Both smr-* digests refreshed when the executing worker took over
       the per-command [Marshal] from the applier and published responses
       through per-command slots instead of a mutex-guarded reply cache
       (were cc866c5d5c7936c8be01c558c2f0f463 events=516876 and
       fe0f63cab5c8a673294dfe8e3fd588c4 events=2010413). *)
    ( "smr-early",
      "ef878ad59f651609e5bad29b6ad51020 clock=0x1.999999999999ap-6 \
       events=456043" );
    ( "smr-lockfree",
      "f94a83e41e747887d907e5e4d4e5537f clock=0x1.999999999999ap-6 \
       events=3071814" );
  ]

let golden_tests =
  List.map
    (fun (name, run) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string)
            "golden event-order digest"
            (List.assoc name golden_expected)
            (trace_digest run)))
    golden_cases

(* --- the experiment grid --- *)

(* Every distinct configuration is computed once, every duplicate is served
   from the memo, and the results do not depend on the number of domains. *)
let test_grid_memo () =
  let configs = [ 3; 1; 3; 2; 1; 3 ] in
  let run jobs =
    let calls = Atomic.make 0 in
    let find =
      Grid_runner.memo ~jobs
        (fun x ->
          Atomic.incr calls;
          x * x)
        configs
    in
    let results = List.map find configs in
    Alcotest.(check int)
      (Printf.sprintf "one call per distinct config (jobs %d)" jobs)
      3 (Atomic.get calls);
    Alcotest.check_raises "unknown config" Not_found (fun () ->
        ignore (find 4 : int));
    results
  in
  Alcotest.(check (list int)) "results" [ 9; 1; 9; 4; 1; 9 ] (run 1);
  Alcotest.(check (list int)) "jobs 2 = jobs 1" (run 1) (run 2)

module Figures = Psmr_harness.Figures

let tiny_options jobs =
  {
    Figures.fast_options with
    duration = 0.004;
    warmup = 0.001;
    smr_duration = 0.006;
    smr_warmup = 0.002;
    workers = [ 1; 8 ];
    write_pcts = [ 0.; 50. ];
    clients = 20;
    client_sweep = [ 20 ];
    progress = false;
    jobs;
  }

let tiny_report opts =
  let fig title s =
    Figures.render_figure ~title ~x_label:"x" ~y_label:"kops/s" s
  in
  let cost = Psmr_workload.Workload.Light in
  let throughput plot = Figures.draw opts (plot opts cost) in
  String.concat ""
    [
      fig "2" (throughput Figures.fig2_plot);
      fig "3" (throughput Figures.fig3_plot);
      fig "4" (throughput Figures.fig4_plot);
      fig "5" (throughput Figures.fig5_plot);
      Figures.fig6_table (Figures.fig6 opts ~write_pct:5.0);
    ]

(* The text above, generated before the figures became point lists.
   Figures 4–6 (the replicated ones) re-captured when the executing worker
   took over the per-command [Marshal] from the applier and responses
   moved from a mutex-guarded reply cache to per-command slots; at 8
   workers, fine-grained went from 243.33 to 152.83 kops, lock-free from
   382.17 to 612.33 and sequential SMR from 259.33 to 283.83; Figure 6's
   lock-free at 32 workers from 190.0 to 250.0 kops. *)
let tiny_report_pinned = {|## 2

(y = kops/s)
x  coarse-grained  fine-grained  lock-free
-  --------------  ------------  ---------
1           47.75            86        294
8             114        152.75     537.75

## 3

(y = kops/s)
x   coarse-grained, 10 workers  fine-grained, 1 workers  lock-free, 2 workers
--  --------------------------  -----------------------  --------------------
0                          114                       86                   541
50                       51.25                    40.75                184.25

## 4

(y = kops/s)
x  coarse-grained  fine-grained  lock-free  sequential SMR
-  --------------  ------------  ---------  --------------
1           56.17         37.17     213.83          283.83
8              57        152.83     612.33          283.83

## 5

(y = kops/s)
x   coarse-grained, 12 workers  fine-grained, 4 workers  lock-free, 8 workers  sequential SMR
--  --------------------------  -----------------------  --------------------  --------------
0                        57.50                   152.83                612.33          283.83
50                       39.33                    48.67                167.67             227

sequential SMR:
throughput (kops/s)  latency (ms)
-------------------  ------------
37.3                        4.460

fine-grained, 6 workers:
throughput (kops/s)  latency (ms)
-------------------  ------------
103.3                       1.985

coarse-grained, 12 workers:
throughput (kops/s)  latency (ms)
-------------------  ------------
49.3                        3.774

lock-free, 32 workers:
throughput (kops/s)  latency (ms)
-------------------  ------------
250.0                       0.807
|}

(* Figure 4's points at the best Figure 5 worker count and its sequential
   baseline are Figure 5's points at 0% writes, as values. *)
let test_figures_share_points () =
  let opts = tiny_options 1 and cost = Psmr_workload.Workload.Light in
  let fig4 = Figures.fig4_plot opts cost
  and fig5 = Figures.fig5_plot opts cost in
  let at name x plot = List.assoc x (List.assoc name plot) in
  Alcotest.(check bool)
    "lock-free at 8 workers" true
    (at "lock-free" 8.0 fig4 = at "lock-free, 8 workers" 0.0 fig5);
  List.iter
    (fun w ->
      Alcotest.(check bool)
        "sequential baseline" true
        (at "sequential SMR" w fig4 = at "sequential SMR" 0.0 fig5))
    [ 1.0; 8.0 ]

(* A single figure writes the CSV the full report writes, holding the
   series it printed. *)
let test_figure_csv () =
  let dir = Filename.temp_dir "psmr_figure_csv" "" in
  let opts = { (tiny_options 1) with csv_dir = Some dir } in
  let cost = Psmr_workload.Workload.Light in
  let fig2 = List.hd Figures.throughput_figures in
  let text = Figures.render_throughput_figure opts fig2 cost in
  let series = Figures.draw opts (Figures.fig2_plot opts cost) in
  Alcotest.(check string) "printed series"
    (Figures.render_figure ~title:"Figure 2 (light): standalone, 0% writes"
       ~x_label:"workers" ~y_label:"kops/s" series)
    text;
  let path = Filename.concat dir "fig2_light.csv" in
  Alcotest.(check bool) "csv written" true (Sys.file_exists path);
  let csv = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Sys.rmdir dir;
  Alcotest.(check string) "csv holds the printed series"
    (Psmr_util.Table.csv_of_series ~x_label:"workers" series)
    csv

let test_figures_report () =
  let text = tiny_report (tiny_options 1) in
  Alcotest.(check string) "pinned text" tiny_report_pinned text;
  Alcotest.(check string) "jobs 2 = jobs 1" text (tiny_report (tiny_options 2))

let main () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "delay ordering" `Quick test_delay_ordering;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "suspend/resume" `Quick test_suspend_resume;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
          Alcotest.test_case "events counted" `Quick test_events_counted;
          Alcotest.test_case "negative delay clamped" `Quick test_negative_delay_clamped;
          Alcotest.test_case "parked forever" `Quick test_suspended_forever_is_fine;
        ] );
      ( "sync",
        sync_tests timed
        @ [
            Alcotest.test_case "cpu capacity" `Quick test_cpu_capacity;
            Alcotest.test_case "costs advance clock" `Quick
              test_costs_advance_clock;
            Alcotest.test_case "wakeup cost" `Quick test_wakeup_cost;
            Alcotest.test_case "unlock by non-owner" `Quick
              (test_unlock_not_owner timed);
          ] );
      ( "sync-check",
        sync_tests checked
        @ [
            Alcotest.test_case "unlock by non-owner" `Quick
              (test_unlock_not_owner checked);
          ] );
      ( "platform",
        [
          Alcotest.test_case "atomics" `Quick test_platform_atomics;
          Alcotest.test_case "after" `Quick test_platform_after;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "queue",
        [
          Alcotest.test_case "lane bypass" `Quick test_queue_lane_bypass;
          Alcotest.test_case "heap beats lane on tie" `Quick
            test_queue_heap_beats_lane_on_tie;
          Alcotest.test_case "zero-alloc steady state" `Quick
            test_queue_zero_alloc_steady_state;
          Alcotest.test_case "scheduling alloc bound" `Quick
            test_engine_scheduling_alloc_bound;
          QCheck_alcotest.to_alcotest prop_queue_matches_model;
        ] );
      ("golden", golden_tests);
      ( "grid",
        [
          Alcotest.test_case "memo" `Quick test_grid_memo;
          Alcotest.test_case "figures share points" `Quick
            test_figures_share_points;
          Alcotest.test_case "figures report" `Quick test_figures_report;
          Alcotest.test_case "figure csv" `Quick test_figure_csv;
        ] );
    ]

let () =
  (* Regeneration mode: print the digests the current engine produces, one
     `name digest` line each, instead of running the suite. *)
  match Sys.getenv_opt "PSMR_GOLDEN_PRINT" with
  | Some _ ->
      List.iter
        (fun (name, run) -> Printf.printf "%s\t%s\n%!" name (trace_digest run))
        golden_cases
  | None -> main ()
