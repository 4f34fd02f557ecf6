(** The benchmark's workloads: a deployment, a YCSB traffic mix and an
    offered-load shape, with the windows the end-to-end metrics read. *)

module Scenario = Psmr_traffic.Scenario

(** A deployment is ordering × backend: one global sequencer or [n] key
    partitions, executing through any scheduling backend the registry
    names ({!Psmr_early.Registry.of_string}). *)
type ordering = Single | Parts of int

type deployment = { replicas : int; ordering : ordering; backend : string }

let mode d : Psmr_replica.Replica.mode =
  let workers = Pinned.workers in
  let inner : Psmr_replica.Replica.mode =
    match Psmr_early.Registry.of_string d.backend with
    | Some (Cos impl) -> Parallel { impl; workers }
    | Some (Early { classes; optimistic = false }) ->
        Parallel_early { workers; classes }
    | Some (Early { classes; optimistic = true }) ->
        Parallel_early_opt { workers; classes }
    | None -> invalid_arg ("Workloads.mode: unknown backend " ^ d.backend)
  in
  match d.ordering with
  | Single -> inner
  | Parts partitions -> Partitioned { partitions; inner }

type t = {
  name : string;
  deployment : deployment;
  scenario : Scenario.name;
  levels : float array;  (** offered ops/s of each ladder step, ascending *)
  step : float;  (** seconds per step *)
  base : float * float;  (** virtual-time window of the base point *)
  stress : float * float;  (** ... and of the stress point *)
  ladder : bool;  (** whether [max_kops_slo] is defined *)
  crash : (int * float) option;  (** replica crash-stopped, and when *)
  drain : float;  (** arrival-free tail after the last step *)
}

(* The sampled part of step [i]: its first [warm_frac] is excluded. *)
let step_window ~step i =
  let lo = float_of_int i *. step in
  (lo +. (Pinned.warm_frac *. step), lo +. step)

let ladder_end w = float_of_int (Array.length w.levels) *. w.step

(** Sampled window of each ladder step, with its offered ops/s; none
    unless the workload is a ladder. *)
let steps w =
  if w.ladder then
    Array.mapi (fun i level -> (level, step_window ~step:w.step i)) w.levels
  else [||]

let lockfree = { replicas = 3; ordering = Single; backend = "lockfree" }
let part4 = { replicas = 5; ordering = Parts 4; backend = "early-opt" }

let ladder ~name ~deployment ~scenario ~levels ~step ~base ~stress =
  let index level =
    match Array.find_index (( = ) level) levels with
    | Some i -> i
    | None -> invalid_arg "Workloads.ladder: base/stress not a ladder level"
  in
  {
    name;
    deployment;
    scenario;
    levels;
    step;
    base = step_window ~step (index base);
    stress = step_window ~step (index stress);
    ladder = true;
    crash = None;
    drain = Pinned.drain;
  }

let kops = Array.map (fun k -> k *. 1e3)
let ycsb_a_levels = kops [| 50.; 100.; 150.; 200.; 250.; 300.; 350. |]

(* Why each workload exists is recorded in README.md and BENCHMARK.json. *)
let all =
  [
    ladder ~name:"ycsb_a.lockfree" ~deployment:lockfree ~scenario:A
      ~levels:ycsb_a_levels ~step:0.1 ~base:50e3 ~stress:250e3;
    ladder ~name:"ycsb_a.part4" ~deployment:part4 ~scenario:A
      ~levels:ycsb_a_levels ~step:0.1 ~base:50e3 ~stress:200e3;
    ladder ~name:"ycsb_e.part4" ~deployment:part4 ~scenario:E
      ~levels:(kops [| 2.5; 5.; 7.5; 10. |])
      ~step:1.0 ~base:2.5e3 ~stress:5e3;
    (* Arrivals pause for one 5 ms period before the crash, so no batch is
       mid-commit when the leader stops.  A crash mid-commit lets the view
       change finish that batch and answer its clients 100 ms before the
       others, which splits the seeds into two outage lengths. *)
    {
      name = "ycsb_a.lockfree.crash";
      deployment = lockfree;
      scenario = A;
      levels = Array.init 240 (fun i -> if i = 79 then 0.0 else 50e3);
      step = 0.005;
      base = (0.1, 0.395);
      stress = (0.4, 1.2);
      ladder = false;
      crash = Some (0, 0.4);
      drain = Pinned.drain;
    };
  ]

(** [scale f w]: the same workload with every duration multiplied by [f]
    (rates unchanged) — the smoke length used by the tests. *)
let scale f w =
  let sc (a, b) = (a *. f, b *. f) in
  {
    w with
    step = w.step *. f;
    base = sc w.base;
    stress = sc w.stress;
    crash = Option.map (fun (r, t) -> (r, t *. f)) w.crash;
    drain = w.drain *. f;
  }
