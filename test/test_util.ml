(* Unit and property tests for Psmr_util. *)

open Psmr_util

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:7L in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.int64 a) in
  let ys = List.init 50 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:1L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_float_bounds () =
  let r = Rng.create ~seed:2L in
  for _ = 1 to 10_000 do
    let v = Rng.float r 3.5 in
    if v < 0.0 || v >= 3.5 then Alcotest.failf "out of bounds: %f" v
  done

let test_rng_percent_extremes () =
  let r = Rng.create ~seed:3L in
  Alcotest.(check bool) "0%% never" false (Rng.below_percent r 0.0);
  Alcotest.(check bool) "100%% always" true (Rng.below_percent r 100.0)

let test_rng_percent_rate () =
  let r = Rng.create ~seed:4L in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.below_percent r 15.0 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n *. 100.0 in
  if Float.abs (rate -. 15.0) > 1.0 then
    Alcotest.failf "rate %f too far from 15%%" rate

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:5L in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 2.0) > 0.05 then Alcotest.failf "mean %f" mean

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:6L in
  let a = Array.init 100 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Vec.set v 7 0;
  Alcotest.(check int) "set" 0 (Vec.get v 7)

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 1 : int))

let test_vec_pop () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Alcotest.(check (option int)) "pop" (Some 3) (Vec.pop v);
  Alcotest.(check int) "len" 2 (Vec.length v)

let test_vec_sort () =
  let v = Vec.of_array [| 3; 1; 2 |] in
  Vec.sort ~cmp:compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Vec.to_list v)

let test_stats_summary () =
  let s = Stats.summary_of_array [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.mean;
  Alcotest.(check (float 1e-9)) "p50" 3.0 s.p50;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.max

let test_stats_percentile_interp () =
  let a = [| 10.0; 20.0 |] in
  Alcotest.(check (float 1e-9)) "p50 interpolates" 15.0 (Stats.percentile a 50.0)

let test_stats_stddev () =
  Alcotest.(check (float 1e-9)) "stddev" 1.0 (Stats.stddev [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "single" 0.0 (Stats.stddev [| 5.0 |])

let test_histogram_quantile_bounds () =
  let h = Histogram.create () in
  let values = Array.init 1000 (fun i -> float_of_int (i + 1) /. 100.0) in
  Array.iter (Histogram.record h) values;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  let q90 = Histogram.quantile h 0.9 in
  (* Log-bucketing gives bounded relative error. *)
  if q90 < 9.0 *. 0.95 || q90 > 9.0 *. 1.10 then
    Alcotest.failf "q90 %f too far from 9.0" q90;
  Alcotest.(check (float 1e-9)) "max exact" 10.0 (Histogram.max_value h)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 1.0;
  Histogram.record b 2.0;
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" 2 (Histogram.count m)

let test_histogram_mean () =
  let h = Histogram.create () in
  for _ = 1 to 100 do
    Histogram.record h 4.0
  done;
  let m = Histogram.mean h in
  if Float.abs (m -. 4.0) > 0.2 then Alcotest.failf "mean %f" m

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_render () =
  let out =
    Table.render ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "bcd"; "23" ] ]
  in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 4 = "name");
  Alcotest.(check bool) "mentions bcd" true (contains out "bcd")

let test_table_series () =
  let series =
    [
      { Table.name = "a"; points = [ (1.0, 10.0); (2.0, 20.0) ] };
      { Table.name = "b"; points = [ (2.0, 5.5) ] };
    ]
  in
  let out = Table.render_series ~x_label:"x" ~y_label:"y" series in
  Alcotest.(check bool) "missing dash" true (contains out "-");
  Alcotest.(check bool) "value present" true (contains out "5.50");
  let csv = Table.csv_of_series ~x_label:"x" series in
  Alcotest.(check bool) "csv header" true (contains csv "x,a,b")

(* JSON values with the awkward cases in reach: nesting, strings holding
   quotes, backslashes, control and non-ASCII bytes, and negative,
   exponent, subnormal and integer-valued numbers. *)
let json_gen =
  let open QCheck.Gen in
  let str =
    string_size
      ~gen:
        (oneofl
           [ 'a'; 'z'; ' '; '"'; '\\'; '/'; '\n'; '\t'; '\r'; '\b'; '\000';
             '\031'; '\127'; '\xc3'; '\xa9' ])
      (0 -- 8)
  in
  let num =
    oneof
      [
        map float_of_int (-1_000_000 -- 1_000_000);
        float_range (-1e3) 1e3;
        map2
          (fun m e -> m *. (10.0 ** float_of_int e))
          (float_range (-10.0) 10.0) (-300 -- 300);
        oneofl [ 0.0; -0.0; 0.1; 1e-7; 1e15; 1e21; 5e-324; max_float ];
      ]
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null; map (fun b -> Json.Bool b) bool;
               map (fun f -> Json.Num f) num; map (fun s -> Json.Str s) str;
             ]
         in
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 2))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (0 -- 4) (pair str (self (n / 2)))) );
             ])

let prop_json_round_trip =
  QCheck.Test.make ~name:"parse (to_string v) = Ok v" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let test_json_layout () =
  Alcotest.(check string)
    "scalar containers inline, others one member per line"
    "{\n  \"a\": [ 1, -2.5, \"x\" ],\n  \"b\": [\n    { \"c\": null },\n    []\n  ]\n}"
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.Arr [ Json.Num 1.0; Json.Num (-2.5); Json.Str "x" ]);
            ("b", Json.Arr [ Json.Obj [ ("c", Json.Null) ]; Json.Arr [] ]);
          ]));
  Alcotest.(check string) "rounded value prints short" "0.1"
    (Json.to_string (Json.fixed 1 0.1000004))

let () =
  let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests) in
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "percent extremes" `Quick test_rng_percent_extremes;
          Alcotest.test_case "percent rate" `Quick test_rng_percent_rate;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "json",
        [ Alcotest.test_case "printer layout" `Quick test_json_layout ] );
      qsuite "json-props" [ prop_json_round_trip ];
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "pop" `Quick test_vec_pop;
          Alcotest.test_case "sort" `Quick test_vec_sort;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile_interp;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "quantile bounds" `Quick test_histogram_quantile_bounds;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "mean" `Quick test_histogram_mean;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "series" `Quick test_table_series;
        ] );
    ]
