(* Tests for the open-loop traffic subsystem: arrival processes
   (replayability, rate calibration), the bounded session pool, the
   YCSB-style scenario family (mix tolerances, footprint discipline)
   and the open-loop runs ([Psmr_benchmark.Drive] and the shared
   [Psmr_harness.Open_loop] runner).  Simulated windows are tiny: these
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

(* ---------- open-loop runs ---------- *)

module W = Psmr_benchmark.Workloads

(* Open-loop discipline: arrivals are a function of the seed alone.  A
   coarse-locked single sequencer saturated at 600 kops and a four-partition
   deployment that keeps up see the same arrival times, command for
   command. *)
let test_arrivals_independent_of_system () =
  let run deployment =
    let w =
      W.ladder ~name:"due" ~deployment ~scenario:Scenario.A
        ~levels:(W.kops [| 50.; 600. |])
        ~step:0.01 ~base:50e3 ~stress:600e3
    in
    Psmr_benchmark.Drive.prepare { w with drain = 0.005 } ~seed:1
      ~traced:false
  in
  let coarse = run { W.lockfree with backend = "coarse" } in
  let part4 = run W.part4 in
  let failed (o : Psmr_benchmark.Drive.outcome) =
    Array.fold_left (fun k r -> if Float.is_nan r then k + 1 else k) 0 o.ret
  in
  if failed coarse = 0 then Alcotest.fail "coarse did not saturate";
  Alcotest.(check (array (float 0.0)))
    "identical arrival times" coarse.due part4.due

(* The shared open-loop runner behind BENCH_cos.json's open_loop rows and
   [psmr_bench open-loop]: target parsing, ladder shape, and short runs
   (10 ms steps) on each kind of target. *)
module Open_loop = Psmr_harness.Open_loop
module Report = Psmr_benchmark.Report

let target s =
  match Open_loop.target_of_string s with
  | Some d -> d
  | None -> Alcotest.failf "target %S did not parse" s

let quick ?(levels_kops = [ 50. ]) name =
  Open_loop.run
    (Open_loop.ladder ~levels_kops ~step:0.01 (target name) Scenario.A)

let step_to_string (level, (w : Report.window)) =
  let q p =
    match Report.quantile w p with
    | Some (v, lower_bound) ->
        Printf.sprintf "%s%.9g" (if lower_bound then ">=" else "") v
    | None -> "none"
  in
  Printf.sprintf
    "offered_kops=%g arrivals=%d kops=%.1f failed=%d censored=%d samples=%d \
     p50=%s p99=%s"
    (level /. 1e3) w.arrivals w.kops w.failed w.censored (Array.length w.lat)
    (q 0.5) (q 0.99)

let only_step = function
  | [ s ] -> s
  | steps -> Alcotest.failf "expected one step, got %d" (List.length steps)

let test_target_parsing () =
  Alcotest.(check bool) "coarse: lockfree-sized single sequencer" true
    (target "coarse" = { W.lockfree with backend = "coarse" });
  Alcotest.(check bool) "part4 is the benchmark's part4" true
    (target "part4" = W.part4);
  Alcotest.(check bool) "part1: three replicas, one partition" true
    (target "part1"
    = { W.replicas = 3; ordering = Parts 1; backend = "early-opt" });
  List.iter
    (fun s ->
      Alcotest.(check string) ("label of " ^ s) s
        (Open_loop.target_label (target s)))
    [ "coarse"; "indexed"; "early"; "early-opt"; "part2"; "part4" ];
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (Open_loop.target_of_string s = None))
    [ "part0"; "part-2"; "part"; "partx"; "bogus"; "" ]

let test_ladder_shape () =
  let w =
    Open_loop.ladder ~levels_kops:[ 200.; 50.; 200. ] ~step:0.01
      (target "indexed") Scenario.A
  in
  Alcotest.(check string) "named by target" "indexed" w.name;
  Alcotest.(check (array (float 0.0))) "sorted, distinct levels"
    [| 50e3; 200e3 |] w.levels;
  Alcotest.(check (float 0.0)) "50 ms drain" 0.05 w.drain;
  Alcotest.(check (list (float 0.0))) "one sampled window per level"
    [ 50e3; 200e3 ]
    (List.map fst (Array.to_list (W.steps w)));
  match
    Open_loop.ladder ~levels_kops:[] (target "indexed") Scenario.A
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an empty ladder was accepted"

let test_open_loop_deterministic () =
  let run () = List.map step_to_string (quick "indexed") in
  Alcotest.(check (list string)) "same steps" (run ()) (run ())

(* Mild load: every command completes inside its run, so no quantile is a
   censored lower bound. *)
let test_open_loop_completes () =
  let _, w = only_step (quick "indexed") in
  if w.arrivals <= 0 then Alcotest.fail "no arrivals";
  Alcotest.(check int) "nothing failed" 0 w.failed;
  Alcotest.(check int) "nothing censored" 0 w.censored;
  Alcotest.(check int) "one sample per arrival" w.arrivals
    (Array.length w.lat);
  match (Report.quantile w 0.5, Report.quantile w 0.99) with
  | Some (p50, false), Some (p99, false) when 0.0 < p50 && p50 <= p99 -> ()
  | _ -> Alcotest.failf "bad quantiles: %s" (step_to_string (50e3, w))

(* Coarse locking saturates near 100 kops: a 600 kops step leaves commands
   in flight at the end of the run, reported as censored latencies, and
   the SLO knee is the step before it. *)
let coarse_ladder = lazy (quick ~levels_kops:[ 50.; 600. ] "coarse")

let test_open_loop_saturates () =
  match Lazy.force coarse_ladder with
  | [ _; (_, w) ] -> (
      if w.failed <= 0 then Alcotest.fail "no failed command at 600 kops";
      if w.censored <= 0 then Alcotest.fail "no censored command at 600 kops";
      match Report.quantile w 0.99 with
      | Some (p99, true) when p99 > 0.0 -> ()
      | _ ->
          Alcotest.failf "p99 is not a censored lower bound: %s"
            (step_to_string (600e3, w)))
  | steps -> Alcotest.failf "expected two steps, got %d" (List.length steps)

let test_open_loop_knee () =
  Alcotest.(check (float 0.0)) "max rate meeting the SLO" 50e3
    (Report.max_rate_slo (Lazy.force coarse_ladder))

let test_open_loop_optimistic () =
  let _, w = only_step (quick "early-opt") in
  Alcotest.(check int) "nothing failed" 0 w.failed;
  if Array.length w.lat = 0 then Alcotest.fail "no latency samples"

(* The partitioned deployment's latency includes ordering and the reply:
   at least a request hop and a reply hop on the simulated LAN. *)
let test_open_loop_partitioned () =
  let _, w = only_step (quick "part2") in
  Alcotest.(check int) "nothing failed" 0 w.failed;
  match Report.quantile w 0.5 with
  | Some (p50, _) when p50 >= 2.0 *. Psmr_benchmark.Pinned.lan_latency -> ()
  | _ ->
      Alcotest.failf "p50 below two network hops: %s"
        (step_to_string (50e3, w))

(* Exact steps for the three target shapes: the conservative COS, the
   optimistic class-map executor and the partitioned deployment.  Runs are
   deterministic, so any change that moves a latency in the replicated
   deployment shows up here. *)
let test_open_loop_pinned () =
  let pin name expected =
    Alcotest.(check string) name expected
      (step_to_string (only_step (quick name)))
  in
  pin "indexed"
    "offered_kops=50 arrivals=379 kops=47.1 failed=0 censored=0 samples=379 \
     p50=0.000350632062 p99=0.000417065962";
  pin "early-opt"
    "offered_kops=50 arrivals=379 kops=47.1 failed=0 censored=0 samples=379 \
     p50=0.000344162132 p99=0.000410287685";
  pin "part2"
    "offered_kops=50 arrivals=379 kops=47.5 failed=0 censored=0 samples=379 \
     p50=0.000332727789 p99=0.00040088617"

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
      ( "open-loop",
        [
          Alcotest.test_case "arrivals do not depend on the system" `Quick
            test_arrivals_independent_of_system;
          Alcotest.test_case "target parsing" `Quick test_target_parsing;
          Alcotest.test_case "ladder shape" `Quick test_ladder_shape;
          Alcotest.test_case "deterministic" `Quick
            test_open_loop_deterministic;
          Alcotest.test_case "completes at mild load" `Quick
            test_open_loop_completes;
          Alcotest.test_case "saturated step is censored" `Quick
            test_open_loop_saturates;
          Alcotest.test_case "knee before the saturated step" `Quick
            test_open_loop_knee;
          Alcotest.test_case "optimistic backend" `Quick
            test_open_loop_optimistic;
          Alcotest.test_case "partitioned backend" `Quick
            test_open_loop_partitioned;
          Alcotest.test_case "pinned steps" `Quick test_open_loop_pinned;
        ] );
    ]
