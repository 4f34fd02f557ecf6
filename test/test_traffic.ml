(* Tests for the open-loop traffic subsystem: arrival processes
   (replayability, rate calibration), the bounded session pool, the
   YCSB-style scenario family (mix tolerances, footprint discipline)
   and the latency-under-load harness (determinism, open-loop
   shedding, knee detection).  Simulated windows are tiny: these
   validate plumbing and invariants, not absolute numbers. *)

open Psmr_traffic

(* ---------- arrival processes ---------- *)

let gen_shape : Arrival.shape QCheck.Gen.t =
  let open QCheck.Gen in
  let rate = map float_of_int (int_range 1 5_000) in
  let dwell = map (fun ms -> float_of_int ms *. 1e-3) (int_range 1 50) in
  oneof
    [
      map (fun rate -> Arrival.Poisson { rate }) rate;
      map
        (fun (((rate_on, rate_off), mean_on), mean_off) ->
          Arrival.Onoff { rate_on; rate_off = rate_off /. 10.0; mean_on; mean_off })
        (pair (pair (pair rate rate) dwell) dwell);
      map
        (fun ((rate0, rate1), over) -> Arrival.Ramp { rate0; rate1; over })
        (pair (pair rate rate) dwell);
      map
        (fun (period, levels) ->
          Arrival.Steps { period; levels = Array.of_list levels })
        (pair dwell (list_size (int_range 1 5) rate));
    ]

let arb_shape =
  QCheck.make gen_shape ~print:(fun s -> Arrival.label s)

let take n arr = Array.init n (fun _ -> Arrival.next arr)

let prop_arrival_replay =
  QCheck.Test.make ~count:60
    ~name:"arrival streams replay bit-identically from the seed"
    QCheck.(pair arb_shape (int_range 0 1000))
    (fun (shape, seed) ->
      let seed = Int64.of_int seed in
      let a = take 300 (Arrival.create ~seed shape) in
      let b = take 300 (Arrival.create ~seed shape) in
      a = b)

let prop_arrival_monotone =
  QCheck.Test.make ~count:60 ~name:"arrival times are non-decreasing"
    arb_shape (fun shape ->
      let ts = take 500 (Arrival.create ~seed:3L shape) in
      let ok = ref true in
      Array.iteri (fun i t -> if i > 0 && t < ts.(i - 1) then ok := false) ts;
      !ok && ts.(0) >= 0.0)

let test_poisson_mean () =
  (* Empirical mean inter-arrival converges to 1/rate. *)
  let rate = 800.0 in
  let a = Arrival.create ~seed:7L (Arrival.Poisson { rate }) in
  let n = 200_000 in
  let last = ref 0.0 in
  for _ = 1 to n do
    last := Arrival.next a
  done;
  (* Sum of the n inter-arrival gaps is the last arrival time. *)
  let mean = !last /. float_of_int n in
  let want = 1.0 /. rate in
  if Float.abs (mean -. want) /. want > 0.02 then
    Alcotest.failf "poisson mean inter-arrival %.6g, want %.6g" mean want

let test_onoff_mean_rate () =
  (* Long-run arrival count matches the duty-cycle-weighted mean rate. *)
  let shape =
    Arrival.Onoff
      { rate_on = 2000.0; rate_off = 100.0; mean_on = 0.02; mean_off = 0.03 }
  in
  let a = Arrival.create ~seed:11L shape in
  let horizon = 400.0 in
  let count = ref 0 in
  while Arrival.next a < horizon do
    incr count
  done;
  let rate = float_of_int !count /. horizon in
  let want = Arrival.mean_rate shape in
  if Float.abs (rate -. want) /. want > 0.05 then
    Alcotest.failf "onoff rate %.1f/s, want %.1f/s" rate want

let test_ramp_rate_profile () =
  (* A 0->r ramp over T delivers ~r*T/2 arrivals in [0,T], with the
     second half far denser than the first. *)
  let shape = Arrival.Ramp { rate0 = 0.0; rate1 = 2000.0; over = 50.0 } in
  let a = Arrival.create ~seed:13L shape in
  let first = ref 0 and second = ref 0 in
  let t = ref (Arrival.next a) in
  while !t < 50.0 do
    if !t < 25.0 then incr first else incr second;
    t := Arrival.next a
  done;
  let total = !first + !second in
  let want = 2000.0 *. 50.0 /. 2.0 in
  if Float.abs (float_of_int total -. want) /. want > 0.05 then
    Alcotest.failf "ramp total %d, want %.0f" total want;
  (* Mass in the first half is ~1/4 of the ramp's area. *)
  let share = float_of_int !first /. float_of_int total in
  if Float.abs (share -. 0.25) > 0.03 then
    Alcotest.failf "ramp first-half share %.3f" share

let test_steps_rate_profile () =
  (* A 2-level day/night cycle splits arrivals by the level ratio. *)
  let shape = Arrival.Steps { period = 1.0; levels = [| 1500.0; 300.0 |] } in
  let a = Arrival.create ~seed:17L shape in
  let day = ref 0 and night = ref 0 in
  let t = ref (Arrival.next a) in
  while !t < 200.0 do
    if Float.rem !t 2.0 < 1.0 then incr day else incr night;
    t := Arrival.next a
  done;
  let ratio = float_of_int !day /. float_of_int (max 1 !night) in
  if ratio < 4.0 || ratio > 6.5 then
    Alcotest.failf "steps day/night ratio %.2f, want ~5" ratio

let test_arrival_validation () =
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () -> Arrival.create (Arrival.Poisson { rate = 0.0 }));
  bad (fun () -> Arrival.create (Arrival.Poisson { rate = Float.nan }));
  bad (fun () -> Arrival.create (Arrival.Ramp { rate0 = 0.0; rate1 = 0.0; over = 1.0 }));
  bad (fun () -> Arrival.create (Arrival.Steps { period = 1.0; levels = [||] }));
  bad (fun () ->
      Arrival.create
        (Arrival.Onoff
           { rate_on = 0.0; rate_off = 0.0; mean_on = 1.0; mean_off = 1.0 }))

let test_arrival_scale () =
  let shape = Arrival.Poisson { rate = 100.0 } in
  let scaled = Arrival.scale shape 4.0 in
  Alcotest.(check (float 1e-9)) "mean rate scales" 400.0
    (Arrival.mean_rate scaled);
  Alcotest.(check (float 1e-9)) "peak rate scales" 400.0
    (Arrival.peak_rate scaled)

(* ---------- session pool ---------- *)

let test_session_determinism () =
  let mk () = Session.create ~seed:21L ~sessions:1_000_000 () in
  let p1 = mk () and p2 = mk () in
  for _ = 1 to 5_000 do
    let s1 = Session.draw p1 and s2 = Session.draw p2 in
    if s1 <> s2 then Alcotest.failf "draw diverged: %d vs %d" s1 s2;
    let v1 = Psmr_util.Rng.int (Session.stream p1 s1) 1_000_000 in
    let v2 = Psmr_util.Rng.int (Session.stream p2 s2) 1_000_000 in
    if v1 <> v2 then Alcotest.failf "stream diverged: %d vs %d" v1 v2
  done

let test_session_bounded () =
  let pool = Session.create ~seed:22L ~max_live:64 ~sessions:1_000_000 () in
  for _ = 1 to 10_000 do
    ignore (Session.stream pool (Session.draw pool))
  done;
  if Session.live pool > 64 then
    Alcotest.failf "live %d exceeds max_live 64" (Session.live pool);
  if Session.evictions pool = 0 then
    Alcotest.fail "expected evictions with a tiny pool";
  Alcotest.(check int) "touched = live + evicted"
    (Session.touched pool)
    (Session.live pool + Session.evictions pool)

let test_session_distinct_streams () =
  let pool = Session.create ~seed:23L ~sessions:100 () in
  let v id = Psmr_util.Rng.int64 (Session.stream pool id) in
  if v 0 = v 1 then Alcotest.fail "adjacent sessions share a stream"

(* ---------- scenarios ---------- *)

let classify = function
  | Scenario.Read _ -> `R
  | Scenario.Update _ -> `U
  | Scenario.Insert _ -> `I
  | Scenario.Scan _ -> `S
  | Scenario.Rmw _ -> `M

let prop_scenario_mix =
  QCheck.Test.make ~count:12
    ~name:"scenario op mixes match their spec within tolerance"
    (QCheck.make
       QCheck.Gen.(
         pair (oneofl Scenario.all) (int_range 0 999))
       ~print:(fun (n, s) -> Printf.sprintf "%s seed %d" (Scenario.label n) s))
    (fun (name, seed) ->
      let spec = Scenario.spec ~records:10_000 name in
      let g = Scenario.generator spec in
      let rng = Psmr_util.Rng.create ~seed:(Int64.of_int (1000 + seed)) in
      let n = 30_000 in
      let r = ref 0 and u = ref 0 and i = ref 0 and s = ref 0 and m = ref 0 in
      for _ = 1 to n do
        match classify (Scenario.next g rng) with
        | `R -> incr r
        | `U -> incr u
        | `I -> incr i
        | `S -> incr s
        | `M -> incr m
      done;
      let pct c = float_of_int c /. float_of_int n *. 100.0 in
      let close want got = Float.abs (want -. got) <= 1.5 in
      close spec.read_pct (pct !r)
      && close spec.update_pct (pct !u)
      && close spec.insert_pct (pct !i)
      && close spec.scan_pct (pct !s)
      && close spec.rmw_pct (pct !m))

let prop_scenario_footprints =
  QCheck.Test.make ~count:20
    ~name:"scenario ops stay in range with disciplined footprints"
    (QCheck.make
       QCheck.Gen.(pair (oneofl Scenario.all) (int_range 0 999))
       ~print:(fun (n, s) -> Printf.sprintf "%s seed %d" (Scenario.label n) s))
    (fun (name, seed) ->
      let records = 500 in
      let spec = Scenario.spec ~records name in
      let g = Scenario.generator spec in
      let rng = Psmr_util.Rng.create ~seed:(Int64.of_int (7_000 + seed)) in
      let ok = ref true in
      for _ = 1 to 5_000 do
        let op = Scenario.next g rng in
        let fp = Scenario.footprint op in
        if fp = [] || List.length fp > Psmr_app.Kv_store.max_scan_len then
          ok := false;
        List.iter
          (fun (k, w) ->
            if k < 0 || k >= records then ok := false;
            if w <> Scenario.is_write op then ok := false)
          fp;
        (* The kv mapping must be executable as-is: footprints within
           capacity, scan lengths within the service bound. *)
        let store = Psmr_app.Kv_store.create ~capacity:records in
        ignore (Psmr_app.Kv_store.execute store (Scenario.to_kv op))
      done;
      !ok)

let test_scenario_read_latest () =
  (* Workload D's reads are recency-skewed: the mean distance behind
     the insert frontier is far below the uniform records/2. *)
  let records = 100_000 in
  let spec = Scenario.spec ~records Scenario.D in
  let g = Scenario.generator spec in
  let rng = Psmr_util.Rng.create ~seed:31L in
  let dist_sum = ref 0 and reads = ref 0 and frontier = ref (records / 2) in
  for _ = 1 to 50_000 do
    match Scenario.next g rng with
    | Scenario.Read k ->
        let d = (!frontier - 1 - k + records) mod records in
        dist_sum := !dist_sum + d;
        incr reads
    | Scenario.Insert _ -> frontier := (!frontier + 1) mod records
    | _ -> ()
  done;
  let mean = float_of_int !dist_sum /. float_of_int !reads in
  if mean > 20_000.0 then
    Alcotest.failf "read-latest mean distance %.0f (uniform would be %d)"
      mean (records / 2)

let test_scenario_labels () =
  List.iter
    (fun n ->
      match Scenario.of_string (Scenario.label n) with
      | Some n' when n = n' -> ()
      | _ -> Alcotest.failf "label round-trip failed for %s" (Scenario.label n))
    Scenario.all;
  Alcotest.(check bool) "short form" true (Scenario.of_string "A" = Some Scenario.A);
  Alcotest.(check bool) "unknown" true (Scenario.of_string "g" = None)

let test_scenario_service_mappings () =
  (* Every op of the scan-heavy family maps onto all three services
     without tripping a range check. *)
  let spec = Scenario.spec ~records:64 Scenario.E in
  let g = Scenario.generator spec in
  let rng = Psmr_util.Rng.create ~seed:37L in
  let list = Psmr_app.Linked_list.create ~initial_size:100 in
  let bank = Psmr_app.Bank.create ~accounts:16 ~initial_balance:1000 in
  let kv = Psmr_app.Kv_store.create ~capacity:64 in
  for _ = 1 to 2_000 do
    let op = Scenario.next g rng in
    ignore (Psmr_app.Linked_list.execute list (Scenario.to_list op));
    ignore (Psmr_app.Bank.execute bank (Scenario.to_bank ~accounts:16 op));
    ignore (Psmr_app.Kv_store.execute kv (Scenario.to_kv op))
  done

(* ---------- load harness ---------- *)

let scenario_a = Scenario.spec ~records:1_000 Scenario.A

let indexed_target =
  Psmr_harness.Load_bench.Backend (Psmr_early.Registry.Cos Psmr_cos.Registry.Indexed)

let quick_step ?(target = indexed_target) ?(rate = 50_000.0)
    ?(queue_cap = 512) ?(seed = 42L) () =
  Psmr_harness.Load_bench.run_step ~target ~workers:4 ~scenario:scenario_a
    ~shape:(Psmr_traffic.Arrival.Poisson { rate })
    ~sessions:10_000 ~queue_cap ~duration:0.01 ~warmup:0.002 ~seed ()

let test_load_deterministic () =
  let s1 = quick_step () and s2 = quick_step () in
  Alcotest.(check string) "byte-identical step export"
    (Psmr_harness.Load_bench.step_to_string s1)
    (Psmr_harness.Load_bench.step_to_string s2)

let test_load_completes () =
  let s = quick_step () in
  if s.completed <= 0 then Alcotest.fail "no completions";
  if s.samples <= 0 then Alcotest.fail "no latency samples";
  if not (s.p50 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max_latency) then
    Alcotest.failf "quantiles out of order: %.3g %.3g %.3g %.3g" s.p50 s.p99
      s.p999 s.max_latency;
  (* Mildly loaded: nothing should be shed. *)
  Alcotest.(check int) "no drops at mild load" 0 s.dropped

let test_load_sheds_when_overloaded () =
  let s =
    quick_step
      ~target:(Psmr_harness.Load_bench.Backend (Psmr_early.Registry.Cos Psmr_cos.Registry.Coarse))
      ~rate:2_000_000.0 ~queue_cap:128 ()
  in
  if s.dropped = 0 then Alcotest.fail "expected shedding at 2M offered";
  if s.queue_peak > 128 then
    Alcotest.failf "offered queue grew past its cap: %d" s.queue_peak;
  if not (s.drop_rate > 0.0 && s.drop_rate <= 1.0) then
    Alcotest.failf "drop rate %.3f out of range" s.drop_rate

let test_load_open_loop_arrivals () =
  (* Open-loop discipline: the arrival count is a property of the
     arrival process alone — a saturated coarse lock and a healthy
     indexed COS see the exact same offered stream (the arrival path
     pays no simulated cost, so the backend cannot perturb it). *)
  let coarse =
    quick_step
      ~target:(Psmr_harness.Load_bench.Backend (Psmr_early.Registry.Cos Psmr_cos.Registry.Coarse))
      ~rate:400_000.0 ~queue_cap:256 ()
  in
  let indexed = quick_step ~rate:400_000.0 ~queue_cap:256 () in
  Alcotest.(check int) "identical arrival counts" coarse.arrivals
    indexed.arrivals

let test_load_optimistic_backend () =
  let early_opt =
    Option.get (Psmr_harness.Load_bench.target_of_string "early-opt")
  in
  let s = quick_step ~target:early_opt () in
  if s.completed <= 0 then Alcotest.fail "no optimistic commits";
  if s.samples <= 0 then Alcotest.fail "no commit latency samples"

let test_load_partitioned_backend () =
  let s =
    Psmr_harness.Load_bench.run_step
      ~target:(Psmr_harness.Load_bench.Partitioned 2)
      ~workers:4 ~scenario:scenario_a
      ~shape:(Psmr_traffic.Arrival.Poisson { rate = 50_000.0 })
      ~sessions:10_000 ~queue_cap:512 ~duration:0.02 ~warmup:0.005 ~seed:42L ()
  in
  if s.completed <= 0 then Alcotest.fail "no partitioned completions";
  (* The ordering path (batching + LAN + merge) is part of the latency. *)
  if s.p50 < Psmr_harness.Model.lan_latency then
    Alcotest.failf "partitioned p50 %.3g below one network hop" s.p50

(* Exact step exports for the three target shapes — the conservative
   backend path, the optimistic submit/confirm pipeline and the
   partitioned stack.  Simulated steps are deterministic, so any harness
   change that moves one event shows up here. *)
let test_load_pinned () =
  let pin target expected =
    Alcotest.(check string)
      (Psmr_harness.Load_bench.target_label target)
      expected
      (Psmr_harness.Load_bench.step_to_string (quick_step ~target ()))
  in
  pin indexed_target
    "offered_kops=50 kops=49.4 arrivals=493 completed=494 dropped=0 \
     drop_rate=0 samples=493 p50=1.09672546e-05 p99=1.8119812e-05 \
     p999=2.36702767e-05 mean_latency=1.06683851e-05 \
     max_latency=2.36702767e-05 queue_peak=2 engine_events=65956";
  pin
    (Option.get (Psmr_harness.Load_bench.target_of_string "early-opt"))
    "offered_kops=50 kops=49.3 arrivals=493 completed=493 dropped=0 \
     drop_rate=0 samples=493 p50=8.10623169e-06 p99=1.28746033e-05 \
     p999=1.4827016e-05 mean_latency=7.86225162e-06 \
     max_latency=1.4827016e-05 queue_peak=2 engine_events=25656";
  pin (Psmr_harness.Load_bench.Partitioned 2)
    "offered_kops=50 kops=48.8 arrivals=493 completed=488 dropped=0 \
     drop_rate=0 samples=471 p50=0.000396728516 p99=0.000579833984 \
     p999=0.000630245077 mean_latency=0.000387657473 \
     max_latency=0.000630245077 queue_peak=2 engine_events=33856"

(* A request batch larger than the partitioned stack's credit window can
   never acquire its credits; the stack must refuse it up front instead of
   wedging the injector. *)
let test_load_partitioned_batch_over_window () =
  match
    Psmr_harness.Load_bench.run_step
      ~target:(Psmr_harness.Load_bench.Partitioned 2)
      ~workers:4 ~scenario:scenario_a
      ~shape:(Psmr_traffic.Arrival.Poisson { rate = 2_000_000.0 })
      ~sessions:10_000 ~batch:2048 ~queue_cap:8192 ~duration:0.01
      ~warmup:0.002 ()
  with
  | exception Invalid_argument _ -> ()
  | s ->
      Alcotest.failf "batch 2048 over a 1024 window ran: %s"
        (Psmr_harness.Load_bench.step_to_string s)

let test_target_parsing () =
  let round s =
    Option.map Psmr_harness.Load_bench.target_label
      (Psmr_harness.Load_bench.target_of_string s)
  in
  Alcotest.(check (option string)) "part4" (Some "part4") (round "part4");
  Alcotest.(check (option string)) "part-2" (Some "part2") (round "part-2");
  Alcotest.(check (option string)) "coarse" (Some "coarse-grained") (round "coarse");
  Alcotest.(check (option string)) "early-opt" (Some "early-opt") (round "early-opt");
  Alcotest.(check (option string)) "junk" None (round "part-zero");
  Alcotest.(check (option string)) "junk2" None (round "part0")

let synthetic_step offered p99 drop_rate : Psmr_harness.Load_bench.step =
  {
    offered_kops = offered;
    arrivals = 1000;
    completed = 900;
    dropped = 0;
    drop_rate;
    kops = offered;
    samples = 900;
    p50 = p99 /. 2.0;
    p99;
    p999 = p99 *. 2.0;
    mean_latency = p99 /. 2.0;
    max_latency = p99 *. 3.0;
    queue_peak = 10;
    engine_events = 0;
    wall_seconds = 0.0;
  }

let test_knee_detection () =
  let steps =
    [
      synthetic_step 25.0 1e-5 0.0;
      synthetic_step 50.0 1.2e-5 0.0;
      synthetic_step 100.0 9e-5 0.0;
      synthetic_step 200.0 1e-3 0.5;
    ]
  in
  Alcotest.(check (option (float 1e-9))) "p99 knee" (Some 100.0)
    (Psmr_harness.Load_bench.knee steps);
  let flat = [ synthetic_step 25.0 1e-5 0.0; synthetic_step 50.0 2e-5 0.0 ] in
  Alcotest.(check (option (float 1e-9))) "no knee" None
    (Psmr_harness.Load_bench.knee flat);
  let droppy = [ synthetic_step 25.0 1e-5 0.0; synthetic_step 50.0 1e-5 0.2 ] in
  Alcotest.(check (option (float 1e-9))) "drop knee" (Some 50.0)
    (Psmr_harness.Load_bench.knee droppy)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "traffic"
    [
      ( "arrival",
        [
          q prop_arrival_replay;
          q prop_arrival_monotone;
          Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
          Alcotest.test_case "onoff mean rate" `Quick test_onoff_mean_rate;
          Alcotest.test_case "ramp profile" `Quick test_ramp_rate_profile;
          Alcotest.test_case "steps profile" `Quick test_steps_rate_profile;
          Alcotest.test_case "validation" `Quick test_arrival_validation;
          Alcotest.test_case "scale" `Quick test_arrival_scale;
        ] );
      ( "session",
        [
          Alcotest.test_case "deterministic" `Quick test_session_determinism;
          Alcotest.test_case "bounded" `Quick test_session_bounded;
          Alcotest.test_case "distinct streams" `Quick test_session_distinct_streams;
        ] );
      ( "scenario",
        [
          q prop_scenario_mix;
          q prop_scenario_footprints;
          Alcotest.test_case "read latest" `Quick test_scenario_read_latest;
          Alcotest.test_case "labels" `Quick test_scenario_labels;
          Alcotest.test_case "service mappings" `Quick test_scenario_service_mappings;
        ] );
      ( "load-bench",
        [
          Alcotest.test_case "deterministic" `Quick test_load_deterministic;
          Alcotest.test_case "completes" `Quick test_load_completes;
          Alcotest.test_case "sheds when overloaded" `Quick test_load_sheds_when_overloaded;
          Alcotest.test_case "open-loop arrivals" `Quick test_load_open_loop_arrivals;
          Alcotest.test_case "optimistic backend" `Quick test_load_optimistic_backend;
          Alcotest.test_case "partitioned backend" `Slow test_load_partitioned_backend;
          Alcotest.test_case "pinned steps" `Quick test_load_pinned;
          Alcotest.test_case "partitioned batch over window" `Quick
            test_load_partitioned_batch_over_window;
          Alcotest.test_case "target parsing" `Quick test_target_parsing;
          Alcotest.test_case "knee detection" `Quick test_knee_detection;
        ] );
    ]
