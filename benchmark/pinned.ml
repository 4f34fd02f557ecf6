(** Constants the benchmark pins instead of importing from [lib/harness], so
    its numbers stay comparable while the harness is refactored.

    The hardware model is the calibrated 64-core server of the paper's
    testbed (Dell R815, 1 Gbps LAN); the protocol config is BFT-SMaRt-style
    batching.  Changing any value here changes every number the benchmark
    reports: treat it as a new benchmark, not as a performance change. *)

let ns x = x *. 1e-9
let us x = x *. 1e-6

(** Primitive costs of the simulated server (copied from the harness
    model at the time the benchmark was defined). *)
let costs : Psmr_sim.Costs.t =
  {
    mutex_lock = ns 220.0;
    mutex_unlock = ns 150.0;
    condition_wait = ns 150.0;
    condition_signal = ns 100.0;
    semaphore_op = ns 500.0;
    atomic_read = 0.0;
    atomic_write = ns 40.0;
    wakeup = us 1.8;
    visit = ns 30.0;
    conflict_check = ns 25.0;
    alloc = ns 400.0;
    marshal = ns 1200.0;
    hash = ns 55.0;
    fault = ns 50.0;
  }

let cores = 64
let lan_latency = us 60.0

(** Simulated CPU per executed command. *)
let read_cost = us 2.2

let write_cost = us 4.0

let abcast : Psmr_broadcast.Abcast.config =
  {
    batch_max = 256;
    batch_delay = 0.5e-3;
    heartbeat_interval = 20e-3;
    election_timeout = 150e-3;
    checkpoint_interval = 256;
  }

(** Partitioned ordering cuts batches sooner: each sequencer sees only its
    shard's share of the load. *)
let part_abcast = { abcast with batch_delay = 0.1e-3 }

let tick_interval = 0.25e-3
let client_timeout = 0.25

(** Traffic: key universe, popularity skew, client population. *)
let records = 100_000

let theta = 0.99
let sessions = 1_000_000
let workers = 32

(** Open-loop admission: client handles, commands per [call_batch], and
    the offered queue between the arrival process and the handles. *)
let clients = 1024

let client_batch = 16
let queue_cap = 16384

(** Share of each ladder step excluded from samples while the load
    settles, and the arrival-free tail that lets in-flight commands
    finish. *)
let warm_frac = 0.2

let drain = 0.3

(** Service-level objective a ladder step must meet to count towards
    [max_kops_slo]. *)
let slo_p99 = 5e-3

let slo_failed = 0.001
let slo_backlog = 0.01

(** Gauge sampling period. *)
let sample_period = 1e-3

(** Virtual time per separately timed slice of the simulation loop. *)
let cpu_slice = 1e-3

(** Length, as a share of the workload's, of the simulations repeated to
    measure [engine.cpu_us_per_op]: short enough to repeat many times in
    a run. *)
let cost_length = 0.1
