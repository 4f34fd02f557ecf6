(** Partitioned-ordering experiments on the DES: the
    {!Psmr_broadcast.Partition} stack over the simulated LAN, open-loop
    keyed feeder, early class-map executor on the measured replica — the
    harness behind the [part_sim_kops] grid of BENCH_cos.json.

    With execution spread over [workers], the sequencer's per-command
    ingestion work ({!Psmr_broadcast.Abcast}'s [Marshal] charge) is the
    serial bottleneck; [partitions] sequencers with leaders on distinct
    replicas divide it.  Cross-partition commands pay ingestion on every
    touched sequencer plus the merge rendezvous. *)

module Cmd = Standalone.Cmd

type result = {
  kops : float;  (** commands executed per second at replica 0, thousands *)
  executed : int;  (** commands executed during the measurement window *)
  emitted : int;  (** total merged emissions at replica 0 *)
  singles : int;  (** single-partition emissions at replica 0 *)
  crosses : int;  (** cross-partition emissions at replica 0 *)
  holes : int;  (** per-partition sequence holes from cycle tie-breaks *)
  merge_pending : int;  (** delivered-but-unmerged entries at the horizon *)
  views : int;  (** view changes across all replicas (0 when fault-free) *)
  engine_events : int;
  wall_seconds : float;
  metrics : Psmr_obs.Metrics.t option;
      (** populated when [run ~metrics:true]: includes the partition
          ledger ([part_singles]/[part_crosses]/[part_holes]) and the
          [cross_stall] rendezvous histogram *)
}

val default_replicas : partitions:int -> int
(** The smallest odd cluster seating every partition's starting leader on
    a distinct replica, floored at 3 (1, 2 → 3; 3 → 3; 4 → 5 …). *)

val config_label :
  partitions:int ->
  replicas:int ->
  workers:int ->
  batch:int ->
  Psmr_workload.Workload.Keyed.spec ->
  string
(** The label [psmr-bench part] prints for one grid point —
    ["part<P>/n<N>/w<W>/b<B>/<keyed-spec>"] with every rate rendered
    through [%g], so fractional percentages stay distinct (the %.0f
    collision class).  Only printed: the grid's memo
    ({!Psmr_sim.Grid_runner.memo}) compares configurations
    structurally. *)

val run :
  partitions:int ->
  workers:int ->
  spec:Psmr_workload.Workload.Keyed.spec ->
  ?replicas:int ->
  (* default {!default_replicas} *)
  ?batch:int ->
  (* feeder request batch (default 16) *)
  ?window:int ->
  (* open-loop credit window: in-flight command cap (default 4096) *)
  ?costs:Psmr_sim.Costs.t ->
  ?duration:float ->
  ?warmup:float ->
  ?seed:int64 ->
  ?metrics:bool ->
  unit ->
  result
(** Build the stack — [partitions] sequencers ordering with
    [Model.smr_abcast] on each of [replicas] replicas, replica 0's
    class-map dispatcher fed each loop turn's merged emissions — and
    drive it with the keyed feeder, at most [window] commands in flight
    in requests of [batch].
    @raise Invalid_argument unless [partitions >= 1] and
    [1 <= batch <= window]. *)
