module W = Psmr_benchmark.Workloads

let levels_kops = [ 50.; 100.; 200.; 300.; 400.; 500.; 600. ]
let step = 0.03

let target_of_string s =
  let parts =
    if String.length s > 4 && String.sub s 0 4 = "part" then
      int_of_string_opt (String.sub s 4 (String.length s - 4))
    else None
  in
  match (parts, Psmr_early.Registry.of_string s) with
  | Some p, _ when p >= 1 ->
      Some
        {
          W.replicas = Part_bench.default_replicas ~partitions:p;
          ordering = Parts p;
          backend = "early-opt";
        }
  | _, Some _ -> Some { W.lockfree with backend = s }
  | _ -> None

let target_label (d : W.deployment) =
  match d.ordering with
  | Single -> d.backend
  | Parts p -> Printf.sprintf "part%d" p

let ladder ?(levels_kops = levels_kops) ?(step = step) deployment scenario =
  if levels_kops = [] then invalid_arg "Open_loop.ladder: no levels";
  let levels = W.kops (Array.of_list (List.sort_uniq compare levels_kops)) in
  let w =
    W.ladder ~name:(target_label deployment) ~deployment ~scenario ~levels
      ~step ~base:levels.(0)
      ~stress:levels.(Array.length levels - 1)
  in
  { w with drain = 0.05 }

let run w =
  let s =
    Psmr_benchmark.Bench.samples
      (Psmr_benchmark.Drive.prepare w ~seed:1 ~traced:false)
  in
  Array.to_list (W.steps w)
  |> List.map (fun (level, win) ->
         (level, Psmr_benchmark.Report.window s win))
