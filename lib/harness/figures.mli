(** Definitions of every figure of the paper's evaluation (§7) plus the
    ablation report; see DESIGN.md's experiment index.  A figure is data —
    named series of (x, {!point}) — and a report runs the points of all
    its figures once, through one {!Psmr_sim.Grid_runner.memo}. *)

type options = {
  duration : float;  (** standalone measurement window (virtual seconds) *)
  warmup : float;
  smr_duration : float;
  smr_warmup : float;
  workers : int list;  (** x-axis of Figures 2 and 4 *)
  write_pcts : float list;  (** x-axis of Figures 3 and 5 *)
  clients : int;  (** closed-loop clients for Figures 4 and 5 *)
  client_sweep : int list;  (** load points for Figure 6 *)
  csv_dir : string option;  (** write CSV files here when set *)
  progress : bool;  (** log each run to stderr *)
  jobs : int;
      (** OCaml domains for independent grid points (default [1],
          sequential).  Every point meets {!Psmr_sim.Grid_runner.map}'s
          discipline — it owns its engine, RNG and sinks — so the rendered
          output is byte-identical for any [jobs]; only wall time
          changes. *)
}

val default_options : options
(** The paper's axes (workers 1..64, writes 0..100%, 200 clients). *)

val fast_options : options
(** Subsampled axes and short windows, for smoke runs. *)

(** {2 Points} *)

(** One simulation, named by value: equal points compute equal results, so
    a report runs each distinct point once. *)
type point =
  | Standalone of {
      backend : Psmr_early.Registry.backend;
      workers : int;
      spec : Psmr_workload.Workload.spec;  (** the paper's list workload *)
      max_size : int;  (** in-flight window *)
      batch : int;  (** commands per delivery *)
    }  (** {!Standalone.run} over the [options] window *)
  | Replicated of {
      mode : Psmr_replica.Replica.mode;
      spec : Psmr_workload.Workload.spec;
      clients : int;
    }  (** {!Smr.run} over the [options] replicated window *)

type plot = (string * (float * point) list) list
(** A figure as data: named series of (x, point). *)

val fig2_plot : options -> Psmr_workload.Workload.cost_class -> plot
val fig3_plot : options -> Psmr_workload.Workload.cost_class -> plot
val fig4_plot : options -> Psmr_workload.Workload.cost_class -> plot
val fig5_plot : options -> Psmr_workload.Workload.cost_class -> plot
val fig6_plot : options -> write_pct:float -> plot

val indexed_vs_scan : plot
(** A6 — the key-indexed insert against the lock-free scan baseline in the
    Figure 2 setup (light, 0% writes), with and without delivery-time
    batching, per worker count. *)

val draw : options -> plot -> Psmr_util.Table.series list
(** Run a plot's points and read each as its kops. *)

(** {2 Figures} *)

val fig6 : options -> write_pct:float -> Psmr_util.Table.series list
(** Per mode: (throughput kops/s, mean latency ms) per client count. *)

(** One of the paper's throughput figures (2-5), as the report renders it:
    titled ["Figure <number> (<cost>): <caption>"], written to
    [fig<number>_<cost>.csv] under [csv_dir] with x column [csv_x]. *)
type throughput_figure = {
  number : int;
  plot : options -> Psmr_workload.Workload.cost_class -> plot;
  caption : string;
  x_label : string;
  csv_x : string;
  summary : string;  (** one line: what the figure measures *)
}

val throughput_figures : throughput_figure list
(** Figures 2, 3, 4 and 5, in order. *)

val render_throughput_figure :
  options -> throughput_figure -> Psmr_workload.Workload.cost_class -> string
(** One throughput figure at one cost, run and rendered as {!run_all}
    renders it, its CSV written when [csv_dir] is set. *)

val render_fig6 : options -> write_pct:float -> string
(** Figure 6 at one write percentage, as {!run_all} renders it, its CSV
    ([fig6_<pct>pct.csv]) written when [csv_dir] is set. *)

val render_figure :
  title:string -> x_label:string -> y_label:string ->
  Psmr_util.Table.series list -> string

val fig6_table : Psmr_util.Table.series list -> string

val render_ablations : options -> string
(** Run and render the ablation experiments (A1-A6). *)

val run_all : ?opts:options -> unit -> string
(** Every figure and ablation as one report (tens of minutes with
    {!default_options}). *)
