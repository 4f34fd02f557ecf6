(* Standalone driver for the A6 ablation (indexed vs scan-based insert):
   prints the throughput-vs-workers table and the per-insert cost vs graph
   population micro-measure without running the full figure suite. *)

let () =
  print_endline "## Ablation: indexed vs scan-based insert (light, 0% writes)\n";
  print_string
    (Psmr_util.Table.render_series ~x_label:"workers" ~y_label:"kops/s"
       (Psmr_harness.Figures.draw
          { Psmr_harness.Figures.default_options with progress = false }
          Psmr_harness.Figures.indexed_vs_scan));
  print_endline
    "\n## Ablation: per-insert cost vs graph population (no workers)\n";
  print_string
    (Psmr_util.Table.render_series ~x_label:"population" ~y_label:"ns/insert"
       (Psmr_harness.Ablations.insert_cost_vs_population ()))
