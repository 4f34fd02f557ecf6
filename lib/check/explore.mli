(** Exploration drivers: run a scenario under many schedules and aggregate
    oracle reports.  See [Strategy] for the two exploration strategies. *)

type failure = {
  schedule : int;  (** 0-based index of the failing run *)
  seed : int64 option;  (** exact replay seed (random walk only) *)
  violations : string list;
  choices : int array;  (** the schedule itself: chosen pid per decision *)
}

type report = {
  schedules : int;  (** runs executed *)
  distinct : int;  (** distinct schedules (by choice-sequence hash) *)
  decisions : int;  (** total decision points across all runs *)
  truncated : int;  (** runs cut off at the step bound *)
  incomplete : int;  (** non-truncated runs that did not finish cleanly *)
  exhausted : bool;  (** DFS only: the bounded tree was fully explored *)
  failures : failure list;
}

(** {2 Drivers}

    [run] executes one schedule of a scenario under the given picker, e.g.
    [~run:(Backend_check.run_schedule sc)]. *)

val random_walk :
  ?deadline:(unit -> bool) ->
  ?stop_on_first:bool ->
  run:(pick:(last:int -> int array -> int) -> Check_platform.outcome) ->
  seed:int64 ->
  schedules:int ->
  unit ->
  report
(** Run [schedules] seeded random walks; walk [i]'s seed is mixed from
    [seed] and [i] (splitmix64) and reported in its {!failure} for replay.
    [deadline] is polled before each
    run; return [true] to stop early (used for time-boxed CI smoke).
    [stop_on_first] stops at the first failing schedule. *)

val dfs :
  ?deadline:(unit -> bool) ->
  ?max_schedules:int ->
  ?preemption_bound:int ->
  ?stop_on_first:bool ->
  run:(pick:(last:int -> int array -> int) -> Check_platform.outcome) ->
  unit ->
  report
(** Systematically enumerate the preemption-bounded schedule tree (bound
    default 2, see [Strategy.Dfs]), up to [max_schedules] (default
    100_000) runs.  [exhausted] in the report means full coverage of the
    bounded tree. *)

val replay :
  run:(pick:(last:int -> int array -> int) -> Check_platform.outcome) ->
  seed:int64 ->
  Check_platform.outcome
(** Re-run the single schedule determined by [seed] (as reported in a
    {!failure}); pass [~trace:true] to the runner for its operation log. *)
