(** Latency under load on the replicated deployment: a ladder of offered
    rates driven by the repository benchmark's {!Psmr_benchmark.Drive}
    (open-loop YCSB arrivals, seed 1) and read per step by
    {!Psmr_benchmark.Report}, incomplete commands included as censored
    latencies (docs/WORKLOADS.md).  The shared core of BENCH_cos.json's
    [open_loop] rows and [psmr_bench open-loop]. *)

module W = Psmr_benchmark.Workloads

val levels_kops : float list
(** The default ladder, in kops: 50, 100, 200 … 600.  It starts at 50 so
    that every step's p99 has at least ten samples beyond it, and ends past
    the ~510 kops reply-path ceiling, so every target's knee lands on an
    interior step. *)

val step : float
(** Default step length: 30 ms of virtual time. *)

val target_of_string : string -> W.deployment option
(** A registry backend name ([coarse], [indexed], [early-opt] …) → a
    {!W.lockfree}-sized single-sequencer deployment with that backend;
    [part]{i P} ([P >= 1]) → [P] partitions over the early-opt class map on
    {!Part_bench.default_replicas} replicas.  [None] otherwise. *)

val target_label : W.deployment -> string
(** The backend name, or [part]{i P}: the inverse of {!target_of_string}. *)

val ladder :
  ?levels_kops:float list ->
  ?step:float ->
  W.deployment ->
  W.Scenario.name ->
  W.t
(** One workload named {!target_label}, offering each of [levels_kops]
    (sorted, duplicates removed; must not be empty) for [step] seconds,
    then a 50 ms arrival-free drain: commands still in flight at its end
    are censored. *)

val run : W.t -> (float * Psmr_benchmark.Report.window) list
(** Drive the workload on seed 1, untraced, and return each ladder step's
    offered ops/s with its sampled window. *)
