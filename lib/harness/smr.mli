(** Replicated (parallel-SMR) experiments under the simulator — the paper's
    §7.4 setup (Figures 4-6): three simulated 64-way replicas on a 1 Gbps
    LAN, closed-loop clients with command batching, the full
    broadcast/replica/COS stack. *)

type result = {
  kops : float;  (** commands executed per second at replica 0, thousands *)
  mean_latency_ms : float;  (** client-side request latency, mean *)
  p99_latency_ms : float;
  completed_calls : int;
  views : int;  (** view changes observed (0 in healthy runs) *)
  faults_injected : int;  (** fault decisions that fired during the run *)
}

val default_duration : float
val default_warmup : float

(** A replicated deployment running on a simulated run. *)
type deployment = {
  replicas : int;
  replica_executed : int -> int;  (** commands executed by that replica *)
  replica_crashed : int -> bool;  (** the replica has crash-stopped *)
  replica_view : int -> int;  (** the replica's installed view *)
  crash_replica : int -> unit;
}

val deploy :
  Sim_run.t ->
  mode:Psmr_replica.Replica.mode ->
  spec:Psmr_workload.Workload.spec ->
  clients:int ->
  cmds_per_request:int ->
  client_timeout:float ->
  seed:int64 ->
  on_reply:(float -> unit) ->
  deployment
(** Build the deployment: three replicas serving the costed list on their
    own CPU banks, ordered by [Model.smr_abcast] over the simulated LAN,
    and spawn its starter, which starts the replicas and [clients]
    closed-loop clients.  Each client draws [cmds_per_request]-command
    batches from its own split of the [seed] RNG and calls [on_reply]
    with each request's latency. *)

val run :
  mode:Psmr_replica.Replica.mode ->
  spec:Psmr_workload.Workload.spec ->
  clients:int ->
  ?cmds_per_request:int ->
  ?duration:float ->
  ?warmup:float ->
  ?seed:int64 ->
  ?faults:Psmr_fault.Schedule.t ->
  unit ->
  result
(** [cmds_per_request] defaults to 10.  [faults] (default empty) arms a
    deterministic fault schedule for the deployment: message
    loss/duplication/delay in the simulated network, worker
    crashes/stalls/slowdowns inside the replicas' parallel executors, and
    replica crash-stops.  Empty schedule: bit-identical to a run without
    fault support.  Throughput is counted at replica 0 or, when the
    schedule crashes replicas, at the live replica that executed most
    during the window. *)
