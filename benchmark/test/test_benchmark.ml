open Psmr_benchmark

(* --- metric definitions on synthetic step data --- *)

let nan = Float.nan

(* Commands [(due, ret)] ([nan]: never returned); none shed. *)
let samples ?(t_end = 10.0) cmds =
  {
    Report.due = Array.of_list (List.map fst cmds);
    ret = Array.of_list (List.map snd cmds);
    shed = Array.make (List.length cmds) false;
    t_end;
  }

(* [n] commands due evenly in [lo, lo + 1), each taking [lat] ([nan]:
   never completing). *)
let step ~lo ~n ~lat =
  List.init n (fun i ->
      let d = lo +. (float_of_int i /. float_of_int n) in
      (d, d +. lat))

let max_rate_stops_at_first_failure () =
  let s =
    samples
      (step ~lo:0.0 ~n:100 ~lat:1e-3
      @ step ~lo:1.0 ~n:100 ~lat:0.02
      @ step ~lo:2.0 ~n:100 ~lat:1e-3)
  in
  let steps =
    List.map
      (fun (level, lo) -> (level, Report.window s (lo, lo +. 1.0)))
      [ (100.0, 0.0); (200.0, 1.0); (300.0, 2.0) ]
  in
  Alcotest.(check (float 0.0))
    "last passing step before the first failure" 100.0
    (Report.max_rate_slo steps);
  Alcotest.(check (float 0.0))
    "first step failing" 0.0
    (Report.max_rate_slo (List.tl steps))

let saturated_step_is_censored () =
  let s = samples ~t_end:2.0 (step ~lo:0.0 ~n:50 ~lat:nan) in
  let w = Report.window s (0.0, 1.0) in
  Alcotest.(check int) "all censored" 50 w.censored;
  Alcotest.(check int) "all failed" 50 w.failed;
  match Report.quantile w 0.99 with
  | Some (v, lower_bound) ->
      Alcotest.(check bool) "age at the end, not zero" true (v >= 1.0);
      Alcotest.(check bool) "marked as a lower bound" true lower_bound;
      Alcotest.(check bool) "misses the SLO" false (Report.meets_slo w)
  | None -> Alcotest.fail "no quantile for a saturated step"

let shed_misses_slo () =
  let s = samples (step ~lo:0.0 ~n:100 ~lat:1e-3) in
  let s = { s with shed = Array.init 100 (fun i -> i = 7) } in
  let w = Report.window s (0.0, 1.0) in
  Alcotest.(check int) "shed counts as failed" 1 w.failed;
  Alcotest.(check bool)
    "one shed in 100 misses a 0.1% SLO" false (Report.meets_slo w)

let wedge_counts_as_unavailable () =
  (* Completions every 10 ms up to t = 1, then a command due at 1.5 never
     completes; the run ends at 3. *)
  let s = samples ~t_end:3.0 (step ~lo:0.0 ~n:100 ~lat:1e-3 @ [ (1.5, nan) ]) in
  Alcotest.(check (float 1e-9))
    "open interval to the end of the run" 1.5
    (Report.unavail s (0.0, 2.0));
  Alcotest.(check (float 1e-9))
    "seen from a later window with no arrivals" 1.5
    (Report.unavail s (2.0, 2.5))

(* --- the service's records --- *)

let undo_pops_the_write_record () =
  let engine = Psmr_sim.Engine.create () in
  let kv =
    Tagged_kv.create ~records:4 ~now:(fun () -> Psmr_sim.Engine.now engine)
  in
  Psmr_sim.Engine.spawn engine (fun () ->
      let put id = { Tagged_kv.id; op = Psmr_app.Kv_store.Put (2, id) } in
      ignore (Tagged_kv.execute kv (put 0) : Tagged_kv.response);
      let _, u = Tagged_kv.execute_undoable kv (put 1) in
      Tagged_kv.undo kv u);
  Psmr_sim.Engine.run engine;
  Alcotest.(check (list int)) "undone write popped" [ 0 ] kv.record.writes.(2);
  Alcotest.(check int) "executions counted" 2 kv.record.execs;
  Alcotest.(check bool)
    "state restored" true
    (Psmr_app.Kv_store.execute kv.kv (Get 2) = Value (Some 0))

(* --- whole runs at 1/10 length --- *)

let smoke =
  lazy
    (List.map
       (fun w -> Bench.run ~length:0.1 w ~seed:1 ~seconds:0.0 ~trace:true)
       Workloads.all)

let all_workloads_pass_checks () =
  List.iter
    (fun (r : Bench.result) ->
      Alcotest.(check bool) (r.workload.name ^ " correct") true r.correct;
      Alcotest.(check bool) (r.workload.name ^ " attempted") true (r.attempted > 0))
    (Lazy.force smoke)

let virtuals seed =
  let w = Workloads.scale 0.1 (List.hd Workloads.all) in
  let o = Drive.prepare w ~seed ~traced:false in
  let m, _, _ = Report.virtual_metrics w (Bench.samples o) in
  Bench.fingerprint m

let same_seed_same_output () =
  Alcotest.(check string)
    "byte-identical virtual metrics" (virtuals 1) (virtuals 1)

let seeds_differ () =
  Alcotest.(check bool)
    "seed 1 and 2 differ" false
    (String.equal (virtuals 1) (virtuals 2))

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let printed_names_are_valid () =
  List.iter
    (fun (r : Bench.result) ->
      Alcotest.(check bool) "workload name" true (valid_name r.workload.name);
      List.iter
        (fun (m : Report.metric) ->
          Alcotest.(check bool) m.name true (valid_name m.name && m.unit_ <> ""))
        r.lines)
    (Lazy.force smoke)

(* BENCHMARK.json names exactly the workloads and the metrics the result
   line carries, with the same units: end-to-end untraced, per-layer
   traced. *)
let benchmark_json_matches () =
  let module J = Psmr_util.Json in
  let text =
    In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all
  in
  let json = match J.parse text with Ok j -> j | Error e -> Alcotest.fail e in
  let field k j = Option.get (J.member k j) in
  let str k j = Option.get (J.as_str (field k j)) in
  let listed key = Option.get (J.as_arr (field key json)) in
  let names_units key =
    List.map (fun m -> (str "name" m, str "unit" m)) (listed key)
  in
  let r = List.hd (Lazy.force smoke) in
  let unit_of name =
    (List.find (fun (m : Report.metric) -> m.name = name) r.lines).unit_
  in
  Alcotest.(check (list (pair string string)))
    "end_to_end" (names_units "end_to_end")
    (List.map (fun n -> (n, unit_of n)) Bench.gated);
  Alcotest.(check (list (pair string string)))
    "per_layer" (names_units "per_layer")
    (List.map (fun (n, _, u) -> (n, u)) r.json);
  Alcotest.(check (list string))
    "workloads"
    (List.map (str "name") (listed "workloads"))
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "benchmark"
    [
      ( "metrics",
        [
          case "max_kops_slo stops at the first failing step"
            max_rate_stops_at_first_failure;
          case "a saturated step is censored, not zero"
            saturated_step_is_censored;
          case "a shed command misses the SLO" shed_misses_slo;
          case "a wedge shows in unavail_ms" wedge_counts_as_unavailable;
        ] );
      ("service", [ case "undo pops the write record" undo_pops_the_write_record ]);
      ( "runs",
        [
          case "all workloads at 1/10 length pass their checks"
            all_workloads_pass_checks;
          case "same seed, same virtual metrics" same_seed_same_output;
          case "seeds 1 and 2 differ" seeds_differ;
          case "printed names are well formed" printed_names_are_valid;
          case "BENCHMARK.json matches the output" benchmark_json_matches;
        ] );
    ]
