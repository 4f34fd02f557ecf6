(** The calibrated simulation model for the paper's testbed (Dell R815,
    4x16-core Opteron 6366HE, 1 Gbps LAN, Java 10).  Values justified in
    EXPERIMENTS.md; shapes are robust to moderate variation. *)

val cores : int
(** Simulated hardware threads per replica (64). *)

val sim_costs : Psmr_sim.Costs.t

val exec_cost : Psmr_workload.Workload.cost_class -> is_write:bool -> float
(** Service execution time of one command. *)

val lan_latency : float
(** One-way network latency between machines. *)

val smr_abcast : Psmr_broadcast.Abcast.config
val smr_tick_interval : float
val smr_client_timeout : float

val fig3_best_workers :
  Psmr_workload.Workload.cost_class -> Psmr_early.Registry.impl -> int
(** Worker counts the paper reports as best per technique (Figure 3
    legends). *)

val fig5_best_workers :
  Psmr_workload.Workload.cost_class -> Psmr_early.Registry.impl -> int
