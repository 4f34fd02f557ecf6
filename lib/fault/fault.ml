(** The fault-injection facade: the hooks the runtime consults at its
    injection points, analogous to {!Psmr_obs.Probe} for observability.

    Discipline (enforced for lib/{cos,sched,replica,net} by [psmr_lint]):
    fault {e decisions} are made only here, from the armed {!Plan}; call
    sites merely ask and act.  Every function pattern-matches on
    {!Plan.active} and returns the no-fault answer immediately when no plan
    is armed, so the disabled path costs one pointer read.  None of these
    functions performs an engine effect — decisions are pure reads of plan
    state plus RNG draws — so a run with no plan armed (or an armed plan
    that never fires) is bit-identical to one without the fault subsystem.

    The cost-model charge for a firing fault ([P.work Fault]) is paid by
    the call site, and only on the firing path: the facade cannot touch the
    platform (it would invert the dependency order), and charging on the
    non-firing path would perturb fault-free virtual time. *)

module Probe = Psmr_obs.Probe

let enabled () = match !Plan.active with Some _ -> true | None -> false

(** What the network should do with one message. *)
type net_action = Deliver | Drop | Duplicate | Delay of float

(** What a worker should do with the command it just reserved. *)
type worker_action =
  | Run
  | Crash of { respawn_after : float option }
      (** die without executing or removing; the supervisor requeues the
          reserved command and, when [respawn_after] is given, spawns a
          replacement worker that many seconds later *)
  | Stall of float  (** pause that long before executing, once *)
  | Slow of float  (** pay that much extra after executing *)

let net ~src:_ ~dst:_ =
  match !Plan.active with
  | None -> Deliver
  | Some p -> (
      match Plan.net_decision p with
      | `Deliver -> Deliver
      | `Drop ->
          Plan.record p;
          Probe.fault `Net_drop;
          Drop
      | `Duplicate ->
          Plan.record p;
          Probe.fault `Net_dup;
          Duplicate
      | `Delay d ->
          Plan.record p;
          Probe.fault `Net_delay;
          Delay d)

let worker ~id =
  match !Plan.active with
  | None -> Run
  | Some p -> (
      match Plan.take_worker_event p ~id with
      | Some (Schedule.Crash { respawn_after }) ->
          Plan.record p;
          Probe.fault `Worker_crash;
          Crash { respawn_after }
      | Some (Schedule.Stall d) ->
          Plan.record p;
          Probe.fault `Worker_stall;
          Stall d
      | Some (Schedule.Slow x) ->
          Plan.record p;
          Probe.fault `Worker_slow;
          Slow x
      | None -> (
          match Plan.slow_extra p ~id with
          | Some x ->
              Plan.record p;
              Probe.fault `Worker_slow;
              Slow x
          | None -> Run))

(** Whether a crash of replica [id] has come due, consuming the event.  The
    deployment's tickers poll this on their tick path. *)
let replica ~id =
  match !Plan.active with
  | None -> false
  | Some p ->
      let due = Plan.take_replica_event p ~id in
      if due then begin
        Plan.record p;
        Probe.fault `Replica_crash
      end;
      due
