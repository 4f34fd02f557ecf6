(** One benchmark run of a workload: set up, simulate, check, summarise.

    The run first sets the workload up [setups] times.  It then simulates
    a fresh set-up untraced, the source of the virtual-time metrics, and
    another traced when asked.  Last it simulates the workload at
    [Pinned.cost_length] of its length, again while another repetition
    still fits in [seconds] of wall time; every repetition must reproduce
    the first exactly.  [engine.cpu_us_per_op] adds up, over the slices of
    virtual time, the least CPU time any of these repetitions spent on the
    slice: a busy host only ever adds time, so the least is the program's
    own cost.  [wall_us_per_op], the first simulation's wall time, is
    reported ungated.  [setup_s] is the median CPU time of every set-up,
    those before the simulations included, so that its samples span the
    whole run rather than its first second. *)

let setups = 15
let now = Unix.gettimeofday

type result = {
  workload : Workloads.t;
  lines : Report.metric list;  (** every metric, checks and verdict *)
  json : (string * float option * string) list;
      (** the metrics of the JSON line: gated end-to-end metrics untraced,
          per-layer metrics traced *)
  correct : bool;
  attempted : int;
  failed : int;
  trace : string option;  (** Chrome trace of a traced run *)
}

(** End-to-end metrics gated against a regression bound.  The others are
    reported only: some workload leaves them undefined or 0, or, for the
    host time of the simulation, a shared host moves them by more than any
    bound the benchmark may set. *)
let gated =
  [
    "p50_ms.base";
    "p99_ms.base";
    "p50_ms.stress";
    "p99_ms.stress";
    "peak_kops";
    "setup_s";
  ]

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let fmt17 v = Printf.sprintf "%.17g" v

(** Virtual metrics rendered at full precision: the identity repeated and
    traced simulations must reproduce. *)
let fingerprint metrics =
  String.concat "\n"
    (List.map
       (fun (m : Report.metric) ->
         m.name ^ " " ^ Option.fold ~none:"null" ~some:fmt17 m.value)
       metrics)

let samples (o : Drive.outcome) =
  { Report.due = o.due; ret = o.ret; shed = o.shed; t_end = o.t_end }

let per_op (o : Drive.outcome) seconds =
  let completed =
    Array.fold_left (fun k r -> if Float.is_nan r then k else k + 1) 0 o.ret
  in
  seconds /. float_of_int (max 1 completed)

let total = Array.fold_left ( +. ) 0.0

let virtual_id w o =
  let m, _, _ = Report.virtual_metrics w (samples o) in
  fingerprint m

let run ?(length = 1.0) (w : Workloads.t) ~seed ~seconds ~trace =
  let w = if length = 1.0 then w else Workloads.scale length w in
  let start = now () in
  let setup_times = ref [] in
  let prepare w =
    Gc.full_major ();
    let t0 = Sys.time () in
    let go = Drive.prepare w ~seed in
    setup_times := (Sys.time () -. t0) :: !setup_times;
    go
  in
  (* An untimed set-up first, so the timed ones reuse heap the process
     already has rather than timing its growth. *)
  let _warm_up = prepare w in
  setup_times := [];
  for _ = 1 to setups do
    let _go = prepare w in
    ()
  done;
  let simulate w ~traced =
    let go = prepare w in
    Gc.full_major ();
    if not traced then go ~traced
    else begin
      (* The probes promote many short-lived boxed floats; a tighter major
         GC keeps the traced run's heap peak near the untraced one's. *)
      let gc = Gc.get () in
      Gc.set { gc with space_overhead = 40 };
      Fun.protect ~finally:(fun () -> Gc.set gc) (fun () -> go ~traced)
    end
  in
  let first = simulate w ~traced:false in
  let untraced_cpu = per_op first (total first.cpu)
  and untraced_wall = per_op first first.wall in
  let virtuals, attempted, failed = Report.virtual_metrics w (samples first) in
  let identity = fingerprint virtuals in
  let _, bad_stages = Layers.stages first in
  let checks = Check.run first ~bad_stages in
  let traced = if trace then Some (simulate w ~traced:true) else None in
  (* The cost: the short simulation once, then again while another
     repetition still fits in [seconds]. *)
  let short = Workloads.scale Pinned.cost_length w in
  let t0 = now () in
  let short_first = simulate short ~traced:false in
  let short_identity = virtual_id short short_first in
  let least = Array.copy short_first.cpu in
  let repetitions = ref 1 and deterministic = ref true in
  let last = ref (now () -. t0) in
  while now () -. start +. !last <= seconds do
    let t0 = now () in
    let o = simulate short ~traced:false in
    if virtual_id short o <> short_identity then deterministic := false;
    Array.iteri (fun k c -> least.(k) <- Float.min least.(k) c) o.cpu;
    incr repetitions;
    last := now () -. t0
  done;
  let layer_metrics, trace_checks, trace_json =
    match traced with
    | None -> ([], [], None)
    | Some o ->
        let st, bad = Layers.stages o in
        ( Layers.metrics w o st ~untraced_cpu,
          [
            ( "traced_equals_untraced",
              if virtual_id w o = identity then None
              else Some "virtual metrics differ when traced" );
            ( "traced_stages",
              if bad = [] then None else Some "traced stages do not add up" );
          ],
          Some (Layers.trace_json w o st) )
  in
  let checks =
    checks
    @ [
        ( "repeatable",
          if !deterministic then None else Some "a repetition diverged" );
      ]
    @ trace_checks
  in
  let correct = List.for_all (fun (_, e) -> e = None) checks in
  List.iter
    (fun (name, e) ->
      Option.iter (Printf.eprintf "%s: check %s failed: %s\n%!" w.name name) e)
    checks;
  let flag b = Some (if b then 1.0 else 0.0) in
  let cost =
    Report.metric "engine.cpu_us_per_op" "us/op"
      (Some (per_op short_first (total least) *. 1e6))
  in
  let lines =
    virtuals
    @ [
        Report.metric "setup_s" "s" (Some (median !setup_times));
        cost;
        Report.metric "wall_us_per_op" "us/op"
          (Some (untraced_wall *. 1e6));
        Report.metric "repetitions" "count"
          (Some (float_of_int !repetitions));
      ]
    @ List.map
        (fun (name, v, unit_, _) -> Report.metric name unit_ (Some v))
        layer_metrics
    @ List.map
        (fun (name, e) ->
          Report.metric ("check." ^ name) "bool" (flag (e = None)))
        checks
    @ [ Report.metric "correct" "bool" (flag correct) ]
  in
  let json =
    if trace then
      List.map (fun (n, v, u, _) -> (n, Some v, u)) layer_metrics
      @ [ (cost.name, cost.value, cost.unit_) ]
    else
      List.map
        (fun name ->
          let m = List.find (fun (m : Report.metric) -> m.name = name) lines in
          (name, m.value, m.unit_))
        gated
  in
  { workload = w; lines; json; correct; attempted; failed; trace = trace_json }

let line_of workload (m : Report.metric) =
  Printf.sprintf "%s %s %s %s%s" workload m.name
    (Option.fold ~none:"null" ~some:(Printf.sprintf "%.9g") m.value)
    m.unit_
    (if m.lower_bound then " lower_bound" else "")

(** The result line: [{"correct", "attempted", "failed", "metrics"}]. *)
let json_line ~correct ~attempted ~failed metrics =
  let metric (name, v, u) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
      (Psmr_util.Json.quote name)
      (Option.fold ~none:"null" ~some:fmt17 v)
      (Psmr_util.Json.quote u)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
