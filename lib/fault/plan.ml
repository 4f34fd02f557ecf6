(** An armed fault schedule: the mutable state {!Fault} consults.

    A plan binds a {!Schedule.t} to a virtual-time source and a private
    RNG seeded from the schedule's seed.  All state transitions are plain
    OCaml mutation — a plan never performs an engine effect, never spawns,
    never sleeps — so arming one changes nothing about a run except what
    the facade answers at injection points.  Determinism: the decisions a
    plan produces are a function of (schedule, sequence of consultations),
    and under the simulator the consultation sequence is itself a function
    of the seeds, which is what makes faulty runs replayable.

    Like {!Psmr_obs.Metrics.active}, the active plan is a plain global:
    arming is a harness-level, whole-run decision and the simulated
    platforms are single-threaded. *)

type t = {
  schedule : Schedule.t;
  now : unit -> float;
  rng : Psmr_util.Rng.t;
  (* One-shot worker events not yet fired, in schedule order. *)
  mutable pending_workers : Schedule.worker_event list;
  (* Per-worker permanent slowdown, populated when a Slow event fires. *)
  slow : (int, float) Hashtbl.t;
  mutable pending_replicas : Schedule.replica_event list;
  mutable injected : int;  (* decisions that were not Run/Deliver *)
}

let make ~now (schedule : Schedule.t) =
  {
    schedule;
    now;
    rng = Psmr_util.Rng.create ~seed:schedule.seed;
    pending_workers = schedule.workers;
    slow = Hashtbl.create 8;
    pending_replicas = schedule.replicas;
    injected = 0;
  }

let active : t option ref = ref None

let install t = active := Some t
let clear () = active := None

let with_plan t f =
  let prev = !active in
  active := Some t;
  Fun.protect ~finally:(fun () -> active := prev) f

let schedule t = t.schedule
let injected t = t.injected
let record t = t.injected <- t.injected + 1

(* Consume the first pending event for [id] whose time has come.  The
   pending list is sorted by [at], so the earliest due event fires first;
   a [Slow] event additionally registers the permanent per-command extra. *)
let take_worker_event t ~id =
  let now = t.now () in
  let rec split acc = function
    | [] -> None
    | (e : Schedule.worker_event) :: rest ->
        if e.worker = id && e.at <= now then begin
          t.pending_workers <- List.rev_append acc rest;
          (match e.fault with
          | Schedule.Slow x -> Hashtbl.replace t.slow id x
          | Schedule.Crash _ | Schedule.Stall _ -> ());
          Some e.fault
        end
        else split (e :: acc) rest
  in
  split [] t.pending_workers

let slow_extra t ~id = Hashtbl.find_opt t.slow id

let net_decision t =
  let n = t.schedule.net in
  if not (Schedule.has_net_faults t.schedule) then `Deliver
  else begin
    let u = Psmr_util.Rng.float t.rng 100.0 in
    if u < n.loss_pct then `Drop
    else if u < n.loss_pct +. n.dup_pct then `Duplicate
    else if u < n.loss_pct +. n.dup_pct +. n.delay_pct then `Delay n.delay
    else `Deliver
  end

let take_replica_event t ~id =
  let now = t.now () in
  let rec split acc = function
    | [] -> false
    | (e : Schedule.replica_event) :: rest ->
        if e.replica = id && e.at <= now then begin
          t.pending_replicas <- List.rev_append acc rest;
          true
        end
        else split (e :: acc) rest
  in
  split [] t.pending_replicas
