(* The BENCH_cos.json schema, checked in one place: the bench binary runs
   it on a report before writing it and before diffing it, the test suite
   on the committed file.  Every failure names the JSON path it is at. *)

module J = Psmr_util.Json

exception Invalid of string

let invalid path fmt =
  Printf.ksprintf (fun m -> raise (Invalid (path ^ ": " ^ m))) fmt

let get path key v =
  let p = path ^ "." ^ key in
  match J.member key v with Some x -> (p, x) | None -> invalid p "missing"

let num path key v =
  match get path key v with
  | _, J.Num f -> f
  | p, _ -> invalid p "not a number"

let str path key v =
  match get path key v with
  | _, J.Str s -> s
  | p, _ -> invalid p "not a string"

let nums path v keys = List.iter (fun k -> ignore (num path k v)) keys

(* [key] at least [lo]: the non-negative counts, the positive sizes. *)
let at_least lo path v keys =
  List.iter
    (fun k ->
      let x = num path k v in
      if x < lo then invalid (path ^ "." ^ k) "%g is below %g" x lo)
    keys

(* Quantiles named in increasing order must not decrease. *)
let rec ordered path v = function
  | a :: (b :: _ as rest) ->
      let x = num path a v and y = num path b v in
      if x > y then invalid path "%s %g exceeds %s %g" a x b y;
      ordered path v rest
  | keys -> nums path v keys

(* The rows of an array member, each with its path. *)
let rows path key v =
  match get path key v with
  | p, J.Arr l -> List.mapi (fun i r -> (Printf.sprintf "%s[%d]" p i, r)) l
  | p, _ -> invalid p "not an array"

let non_empty path key v =
  match rows path key v with [] -> invalid (path ^ "." ^ key) "empty" | l -> l

(* The layers a metrics block exports in full: the standalone harness's
   runs touch each of them, so every counter and histogram the table
   declares under them must be there. *)
let metrics_layers = [ "sync"; "platform"; "cos"; "sched" ]

let required_metrics kind =
  List.filter_map
    (fun (name, k) ->
      if
        k = kind
        && List.exists
             (fun l -> String.starts_with ~prefix:(l ^ ".") name)
             metrics_layers
      then Some name
      else None)
    (Psmr_obs.Metrics.declared ())

let metrics_json p b =
  let pc, counters = get p "counters" b in
  nums pc counters (required_metrics `Counter);
  let pl, lat = get p "latency_virtual_seconds" b in
  List.iter
    (fun h ->
      let ph, hv = get pl h lat in
      nums ph hv [ "count" ];
      ordered ph hv [ "p50"; "p95"; "p99" ])
    (required_metrics `Histogram)

let metrics_block doc name =
  let p, b = get "$.metrics" name (snd (get "$" "metrics" doc)) in
  metrics_json p b

let bool path key v =
  match get path key v with
  | _, J.Bool b -> b
  | p, _ -> invalid p "not a boolean"

(* A count that cannot exceed another: [censored <= failed <= arrivals]. *)
let at_most path v small big =
  let x = num path small v and y = num path big v in
  if x > y then invalid path "%s %g exceeds %s %g" small x big y

(* An open-loop step with arrivals must report their latency: a zero
   quantile reads as an idle system when the commands were shed or never
   answered. *)
let open_loop_row (p, row) =
  List.iter (fun k -> ignore (str p k row)) [ "impl"; "backend"; "scenario" ];
  at_least 1.0 p row [ "replicas"; "partitions"; "workers"; "records" ];
  nums p row [ "theta"; "max_kops_slo" ];
  List.iter
    (fun (ps, step) ->
      nums ps step [ "offered_kops"; "kops" ];
      at_least 0.0 ps step [ "arrivals"; "failed"; "censored"; "samples" ];
      at_most ps step "censored" "failed";
      at_most ps step "failed" "arrivals";
      at_most ps step "samples" "arrivals";
      ordered ps step [ "p50"; "p99" ];
      List.iter
        (fun q ->
          ignore (bool ps (q ^ "_lower_bound") step);
          let arrivals = num ps "arrivals" step in
          if arrivals > 0.0 && num ps q step <= 0.0 then
            invalid (ps ^ "." ^ q) "not positive with %g arrivals" arrivals)
        [ "p50"; "p99" ])
    (non_empty p "steps" row)

let part_row (p, row) =
  ignore (str p "cost" row);
  at_least 1.0 p row [ "partitions"; "workers" ];
  if num p "replicas" row < num p "partitions" row then
    invalid p "fewer replicas than partitions";
  if num p "kops" row <= 0.0 then invalid (p ^ ".kops") "not positive";
  at_least 0.0 p row
    [ "cross_pct"; "singles"; "crosses"; "holes"; "merge_pending"; "views" ]

(* An engine row's rate must be the events over the wall time it reports. *)
let engine_row (p, row) =
  ignore (str p "name" row);
  List.iter
    (fun k -> if num p k row <= 0.0 then invalid (p ^ "." ^ k) "not positive")
    [ "events"; "wall_seconds"; "events_per_second" ];
  let derived = num p "events" row /. num p "wall_seconds" row in
  let eps = num p "events_per_second" row in
  if Float.abs (eps -. derived) /. derived > 0.05 then
    invalid p "events_per_second %.0f is not events/wall_seconds %.0f" eps
      derived

let check doc =
  List.iter (metrics_block doc) [ "coarse_w32"; "lockfree_w32" ];
  List.iter
    (fun (p, r) ->
      ignore (str p "name" r);
      nums p r [ "ns" ])
    (rows "$" "micro_ns_per_op" doc);
  List.iter
    (fun (p, r) ->
      ignore (str p "name" r);
      ignore (str p "faults" r);
      nums p r [ "kops_fault_free"; "kops_faulty" ];
      at_least 0.0 p r [ "injected" ])
    (rows "$" "faults_sim_kops" doc);
  List.iter
    (fun (p, r) ->
      ignore (str p "impl" r);
      nums p r [ "workers"; "kops" ])
    (rows "$" "fig2_sim_kops" doc);
  List.iter
    (fun (p, r) ->
      ignore (str p "name" r);
      nums p r [ "workers"; "mis_pct"; "kops" ];
      at_least 0.0 p r
        [
          "direct"; "rendezvous"; "repairs"; "revoked"; "spec_execs";
          "rollbacks"; "redos";
        ])
    (rows "$" "keyed_sim_kops" doc);
  List.iter part_row (non_empty "$" "part_sim_kops" doc);
  List.iter open_loop_row (non_empty "$" "open_loop" doc);
  List.iter engine_row (non_empty "$" "sim_events_per_wall_second" doc);
  nums "$" doc [ "speedup_w32_part4_vs_part1"; "speedup_w32_early_vs_indexed" ]

let result check doc =
  match check doc with () -> Ok () | exception Invalid m -> Error m

let validate = result check
let validate_metrics = result (metrics_json "$")
