(** Ablation experiments beyond the paper's figures — see each function and
    DESIGN.md's experiment index (A1-A6). *)

val granularity :
  ?workers:int ->
  ?widths:int list ->
  ?write_pct:float ->
  ?duration:float ->
  ?warmup:float ->
  unit ->
  Psmr_util.Table.series list
(** A1 — the lock-granularity spectrum (§7.3.2): striped-COS throughput per
    stripe width, one series per cost class. *)

val graph_size :
  ?workers:int ->
  ?write_pct:float ->
  ?sizes:int list ->
  ?duration:float ->
  ?warmup:float ->
  unit ->
  Psmr_util.Table.series list
(** A2 — sweep of the dependency-graph bound (the paper fixes 150). *)

val realistic_conflicts :
  ?workers:int ->
  ?write_pcts:float list ->
  ?duration:float ->
  ?warmup:float ->
  unit ->
  Psmr_util.Table.series list
(** A3 — the 0.3–2% conflict band the paper cites as realistic (§7.4.2). *)

val indexed_vs_scan :
  ?write_pct:float ->
  ?worker_counts:int list ->
  ?batch:int ->
  ?duration:float ->
  ?warmup:float ->
  unit ->
  Psmr_util.Table.series list
(** A6 — key-indexed insert vs the lock-free scan baseline in the Fig. 2
    standalone setup (light cost, 0% writes by default): throughput per
    worker count for the scan insert, the indexed insert, and the indexed
    insert fed through the batched delivery path. *)

val insert_cost_vs_population :
  ?impls:Psmr_cos.Registry.impl list ->
  ?populations:int list ->
  ?measured:int ->
  ?write_pct:float ->
  ?seed:int64 ->
  unit ->
  Psmr_util.Table.series list
(** A6 companion micro-measure: per-insert virtual-time cost (ns) as a
    function of graph population with no workers attached, so every
    inserted command stays live.  Scan-based inserts grow linearly with
    the population; the indexed insert stays flat. *)

val run_early :
  workers:int ->
  spec:Psmr_workload.Workload.spec ->
  ?duration:float ->
  ?warmup:float ->
  ?seed:int64 ->
  unit ->
  float
(** Standalone throughput (kops/s) of the early scheduler under the same
    setup as [Standalone.run]. *)

val early_vs_late :
  ?workers:int ->
  ?write_pcts:float list ->
  ?duration:float ->
  ?warmup:float ->
  unit ->
  Psmr_util.Table.series list
(** A4 — queue-dispatch early scheduling vs the lock-free and coarse COS. *)

type failover = {
  timeline : (float * float) list;
      (** (bucket end time, kops/s within the bucket) *)
  views : int;  (** views the survivors installed *)
  outage : float option;
      (** seconds from the crash to the start of the first bucket back
          above 90% of the mean pre-crash kops, after the dip; [None] if
          throughput never recovers within the run *)
}

val failover_timeline :
  ?crash_at:float ->
  ?until:float ->
  ?bucket:float ->
  ?clients:int ->
  ?mode:Psmr_replica.Replica.mode ->
  unit ->
  failover
(** A5 — per-bucket throughput of a replicated deployment across a leader
    crash, the views the survivors installed, and the outage. *)
