(** Ablation experiments that are not a sweep of standalone COS points
    (the sweeps are point lists in {!Figures}) — see each function and
    DESIGN.md's experiment index (A4-A6). *)

val insert_cost_vs_population :
  ?impls:Psmr_early.Registry.impl list ->
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
