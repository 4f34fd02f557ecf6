(** Open-loop latency-under-load harness: a {!Psmr_traffic.Arrival}
    process drives a {!Psmr_traffic.Scenario} into an execution backend
    through a bounded offered queue (excess arrivals shed, never
    blocked), reporting the virtual-time latency distribution and drop
    rate per offered-load step and the saturation knee per sweep. *)

module Cmd = Keyed_bench.Cmd

type target =
  | Backend of Psmr_early.Registry.backend
      (** any registry backend; optimistic ones are driven through the
          pipelined submit/confirm protocol at 0% mis-speculation *)
  | Partitioned of int
      (** {!Part_bench.stack} with that many sequencer partitions and a
          1024-command credit window *)

val target_label : target -> string

val target_of_string : string -> target option
(** Every {!Psmr_early.Registry.of_string} name, plus ["part<N>"] /
    ["part-<N>"]. *)

type step = {
  offered_kops : float;  (** target offered load (mean arrival rate) *)
  arrivals : int;  (** arrivals during the measurement window *)
  completed : int;  (** completions during the measurement window *)
  dropped : int;  (** arrivals shed at the full offered queue *)
  drop_rate : float;  (** dropped / arrivals *)
  kops : float;  (** completed per second, thousands *)
  samples : int;  (** latency samples recorded *)
  p50 : float;  (** latency quantiles, virtual seconds *)
  p99 : float;
  p999 : float;
  mean_latency : float;
  max_latency : float;
  queue_peak : int;  (** offered-queue high-water mark *)
  engine_events : int;
  wall_seconds : float;
}

val step_fields : step -> (string * float) list
(** Deterministic fields (no wall clock), in a fixed order, for JSON
    export and the byte-identical-replay test. *)

val step_to_string : step -> string
(** [%.9g]-rendered {!step_fields}: equal strings iff equal runs. *)

val default_sessions : int
val default_queue_cap : int
val default_batch : int

val run_step :
  target:target ->
  workers:int ->
  scenario:Psmr_traffic.Scenario.spec ->
  shape:Psmr_traffic.Arrival.shape ->
  ?sessions:int ->
  ?queue_cap:int ->
  ?batch:int ->
  ?costs:Psmr_sim.Costs.t ->
  ?duration:float ->
  ?warmup:float ->
  ?seed:int64 ->
  unit ->
  step
(** One offered-load point: a fresh deterministic simulation.  Latency
    is arrival (queue entry) to completion — commit for the optimistic
    backend, execution on the measured replica for the partitioned
    stack — and only commands arriving inside the measurement window
    are sampled.  @raise Invalid_argument when [batch] exceeds
    [queue_cap], or the partitioned target's credit window. *)

val default_knee_mult : float
val default_knee_max_drop : float

val knee : ?mult:float -> ?max_drop:float -> step list -> float option
(** Offered kops of the first step whose p99 exceeds [mult] times the
    first step's p99 (the idle baseline) or whose drop rate exceeds
    [max_drop]; [None] when the sweep never saturates. *)

type sweep = {
  target : target;
  workers : int;
  scenario : Psmr_traffic.Scenario.spec;
  steps : step list;
  knee_kops : float option;
}

val sweep :
  target:target ->
  workers:int ->
  scenario:Psmr_traffic.Scenario.spec ->
  rates:float list ->
  ?shape_of_rate:(float -> Psmr_traffic.Arrival.shape) ->
  ?knee_mult:float ->
  ?knee_max_drop:float ->
  ?sessions:int ->
  ?queue_cap:int ->
  ?batch:int ->
  ?costs:Psmr_sim.Costs.t ->
  ?duration:float ->
  ?warmup:float ->
  ?seed:int64 ->
  unit ->
  sweep
(** One {!run_step} per rate (ops/s; [shape_of_rate] defaults to
    Poisson), plus the {!knee} over the resulting steps. *)
