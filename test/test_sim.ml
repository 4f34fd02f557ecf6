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

let test_mutex_exclusion () =
  let e = Engine.create () in
  let m = Sim_sync.Mutex.create { costs with mutex_lock = 0.001 } in
  let inside = ref 0 and max_inside = ref 0 and done_count = ref 0 in
  for _ = 1 to 10 do
    Engine.spawn e (fun () ->
        Sim_sync.Mutex.lock m;
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        Engine.delay 0.01;
        decr inside;
        Sim_sync.Mutex.unlock m;
        incr done_count)
  done;
  Engine.run e;
  Alcotest.(check int) "all finished" 10 !done_count;
  Alcotest.(check int) "mutual exclusion" 1 !max_inside

let test_mutex_fifo_handoff () =
  let e = Engine.create () in
  let m = Sim_sync.Mutex.create costs in
  let order = ref [] in
  Engine.spawn e (fun () ->
      Sim_sync.Mutex.lock m;
      Engine.delay 1.0;
      Sim_sync.Mutex.unlock m);
  for i = 1 to 3 do
    Engine.spawn e ~delay:(0.1 *. float_of_int i) (fun () ->
        Sim_sync.Mutex.lock m;
        order := i :: !order;
        Sim_sync.Mutex.unlock m)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (List.rev !order)

let test_semaphore_counting () =
  let e = Engine.create () in
  let s = Sim_sync.Semaphore.create costs 2 in
  let concurrent = ref 0 and peak = ref 0 in
  for _ = 1 to 6 do
    Engine.spawn e (fun () ->
        Sim_sync.Semaphore.acquire s;
        incr concurrent;
        if !concurrent > !peak then peak := !concurrent;
        Engine.delay 1.0;
        decr concurrent;
        Sim_sync.Semaphore.release s)
  done;
  Engine.run e;
  Alcotest.(check int) "at most 2 inside" 2 !peak

let test_semaphore_release_n () =
  let e = Engine.create () in
  let s = Sim_sync.Semaphore.create costs 0 in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn e (fun () ->
        Sim_sync.Semaphore.acquire s;
        incr woken)
  done;
  Engine.spawn e ~delay:1.0 (fun () -> Sim_sync.Semaphore.release ~n:3 s);
  Engine.run e;
  Alcotest.(check int) "all three woken" 3 !woken

let test_condition_signal_broadcast () =
  let e = Engine.create () in
  let m = Sim_sync.Mutex.create costs in
  let c = Sim_sync.Condition.create costs in
  let ready = ref false and woken = ref 0 in
  for _ = 1 to 4 do
    Engine.spawn e (fun () ->
        Sim_sync.Mutex.lock m;
        while not !ready do
          Sim_sync.Condition.wait c m
        done;
        incr woken;
        Sim_sync.Mutex.unlock m)
  done;
  Engine.spawn e ~delay:1.0 (fun () ->
      Sim_sync.Mutex.lock m;
      ready := true;
      Sim_sync.Condition.broadcast c;
      Sim_sync.Mutex.unlock m);
  Engine.run e;
  Alcotest.(check int) "broadcast wakes all" 4 !woken

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
  let m = Sim_sync.Mutex.create { costs with mutex_lock = 0.25; mutex_unlock = 0.25 } in
  Engine.spawn e (fun () ->
      Sim_sync.Mutex.lock m;
      Sim_sync.Mutex.unlock m);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "lock+unlock cost" 0.5 (Engine.now e)

let test_wakeup_cost () =
  let e = Engine.create () in
  let m = Sim_sync.Mutex.create { costs with wakeup = 1.0 } in
  let t_second = ref 0.0 in
  Engine.spawn e (fun () ->
      Sim_sync.Mutex.lock m;
      Engine.delay 2.0;
      Sim_sync.Mutex.unlock m);
  Engine.spawn e ~delay:0.5 (fun () ->
      Sim_sync.Mutex.lock m;
      t_second := Engine.now e;
      Sim_sync.Mutex.unlock m);
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
   Pinned below for all six COS implementations and both early-scheduling
   modes.  Any engine change that reorders, adds or drops an event, or
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

let golden_standalone impl ~probe_engine =
  ignore
    (Psmr_harness.Standalone.run ~impl ~workers:8 ~spec:golden_spec
       ~duration:0.02 ~warmup:0.005 ~seed:7L ~probe_engine ()
      : Psmr_harness.Standalone.result)

let golden_keyed name ~probe_engine =
  let backend = Option.get (Psmr_early.Registry.of_string name) in
  (* mis_pct > 0 so the early-opt trace exercises the repair path. *)
  let spec =
    { Psmr_workload.Workload.Keyed.low_conflict with keys = 64; mis_pct = 10.0 }
  in
  ignore
    (Psmr_harness.Keyed_bench.run ~backend ~workers:8 ~spec ~duration:0.02
       ~warmup:0.005 ~seed:7L ~probe_engine ()
      : Psmr_harness.Keyed_bench.result)

let golden_cases =
  let cos name impl = (name, fun ~probe_engine -> golden_standalone impl ~probe_engine) in
  let keyed name = (name, fun ~probe_engine -> golden_keyed name ~probe_engine) in
  [
    cos "standalone-coarse" Psmr_cos.Registry.Coarse;
    cos "standalone-fine" Psmr_cos.Registry.Fine;
    cos "standalone-lockfree" Psmr_cos.Registry.Lockfree;
    cos "standalone-fifo" Psmr_cos.Registry.Fifo;
    cos "standalone-striped-64" (Psmr_cos.Registry.Striped 64);
    cos "standalone-indexed" Psmr_cos.Registry.Indexed;
    keyed "early";
    keyed "early-opt";
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
       per-queue write gate: the virtual-time behavior of both early modes
       changed by design.  The first move of the conservative early digest
       since the digests were pinned. *)
    ( "early",
      "606c538d634ad0cf1e566860119bd2b8 clock=0x1.999999999999ap-6 \
       events=341712" );
    (* Also refreshed earlier, when the optimistic protocol gained
       execution-time speculation with rollback (pipelined submit/confirm
       + undo log + claim-word commit).  The COS digests are unchanged
       since they were pinned. *)
    ( "early-opt",
      "a1660371ed54f5fdebbc3795b257f998 clock=0x1.999999999999ap-6 \
       events=287231" );
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
        [
          Alcotest.test_case "mutex exclusion" `Quick test_mutex_exclusion;
          Alcotest.test_case "mutex fifo handoff" `Quick test_mutex_fifo_handoff;
          Alcotest.test_case "semaphore counting" `Quick test_semaphore_counting;
          Alcotest.test_case "semaphore release n" `Quick test_semaphore_release_n;
          Alcotest.test_case "condition broadcast" `Quick test_condition_signal_broadcast;
          Alcotest.test_case "cpu capacity" `Quick test_cpu_capacity;
          Alcotest.test_case "costs advance clock" `Quick test_costs_advance_clock;
          Alcotest.test_case "wakeup cost" `Quick test_wakeup_cost;
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
