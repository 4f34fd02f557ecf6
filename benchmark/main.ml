(* The benchmark command: runs one workload (or all), prints one
   [workload metric value unit] line per metric and check, then the result
   as one JSON line.  Exits 1 when a correctness check fails. *)

open Psmr_benchmark

let write_file path s =
  Out_channel.with_open_text path (fun oc -> output_string oc s)

(* Chrome trace of a traced run, under results/benchmark/. *)
let write_trace (w : Workloads.t) json =
  let dir = Filename.concat "results" "benchmark" in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ "results"; dir ];
  write_file (Filename.concat dir (w.name ^ ".trace.json")) json

let () =
  let workload = ref None
  and seed = ref 1
  and seconds = ref 0.0
  and trace = ref false
  and json_file = ref None
  and length = ref 1.0 in
  let names = List.map (fun (w : Workloads.t) -> w.name) Workloads.all in
  Arg.parse
    [
      ( "--workload",
        Arg.Symbol (names, fun s -> workload := Some s),
        " workload to run (default: all)" );
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S wall seconds to spend repeating the short cost run (default 0)" );
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun t -> trace := t = "1"),
        " 1: also run traced, for the per-layer metrics and \
         results/benchmark/<workload>.trace.json" );
      ( "--json",
        Arg.String (fun f -> json_file := Some f),
        "FILE also write the result line to FILE" );
      ("--smoke", Arg.Unit (fun () -> length := 0.1), " durations at 1/10");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
     [--json FILE] [--smoke]";
  let results =
    List.filter_map
      (fun (w : Workloads.t) ->
        if Option.fold ~none:false ~some:(( <> ) w.name) !workload then None
        else begin
          let r =
            Bench.run ~length:!length w ~seed:!seed ~seconds:!seconds
              ~trace:!trace
          in
          List.iter (fun m -> print_endline (Bench.line_of w.name m)) r.lines;
          Option.iter (write_trace w) r.trace;
          Some r
        end)
      Workloads.all
  in
  let metrics =
    match results with
    | [ r ] -> r.json
    | rs ->
        List.concat_map
          (fun (r : Bench.result) ->
            List.map (fun (n, v, u) -> (r.workload.name ^ "." ^ n, v, u)) r.json)
          rs
  in
  let correct = List.for_all (fun (r : Bench.result) -> r.correct) results in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let line =
    Bench.json_line ~correct
      ~attempted:(sum (fun r -> r.attempted))
      ~failed:(sum (fun r -> r.failed))
      metrics
  in
  Option.iter (fun f -> write_file f (line ^ "\n")) !json_file;
  print_endline line;
  if not correct then exit 1
