(** Exploration drivers: run a scenario under many schedules and aggregate
    what the oracles report.

    Two modes, matching the two strategies:

    - {!random_walk}: [schedules] independent runs; run [i] uses the seed
      [derive_seed seed i], so any failure is replayable from the single
      base seed (reported per-failure as its exact derived seed);
    - {!dfs}: systematic enumeration of the preemption-bounded schedule
      tree; [exhausted = true] in the report means every schedule within
      the bound was covered — a (bounded) verification result, not a test. *)

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

(* splitmix64: decorrelates per-schedule seeds derived from one base seed. *)
let derive_seed base i =
  let z = Int64.add base (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L) in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

type acc = {
  mutable runs : int;
  mutable decisions : int;
  mutable truncated : int;
  mutable incomplete : int;
  mutable failures : failure list;
  hashes : (int64, unit) Hashtbl.t;
}

let acc_create () =
  {
    runs = 0;
    decisions = 0;
    truncated = 0;
    incomplete = 0;
    failures = [];
    hashes = Hashtbl.create 256;
  }

let record acc ~schedule ~seed (o : Check_platform.outcome) =
  acc.runs <- acc.runs + 1;
  acc.decisions <- acc.decisions + o.decisions;
  if o.truncated then acc.truncated <- acc.truncated + 1
  else if not o.completed then acc.incomplete <- acc.incomplete + 1;
  Hashtbl.replace acc.hashes o.trace_hash ();
  if o.violations <> [] then
    acc.failures <-
      { schedule; seed; violations = o.violations; choices = o.choices }
      :: acc.failures

let finish acc ~exhausted =
  {
    schedules = acc.runs;
    distinct = Hashtbl.length acc.hashes;
    decisions = acc.decisions;
    truncated = acc.truncated;
    incomplete = acc.incomplete;
    exhausted;
    failures = List.rev acc.failures;
  }

let replay ~run ~seed =
  let rw = Strategy.Random_walk.create ~seed in
  run ~pick:(fun ~last tags -> Strategy.Random_walk.pick rw ~last tags)

let random_walk ?(deadline = fun () -> false) ?(stop_on_first = false) ~run
    ~seed ~schedules () =
  let acc = acc_create () in
  let i = ref 0 in
  let stop = ref false in
  while (not !stop) && !i < schedules do
    if deadline () then stop := true
    else begin
      let s = derive_seed seed !i in
      let o = replay ~run ~seed:s in
      record acc ~schedule:!i ~seed:(Some s) o;
      if stop_on_first && o.violations <> [] then stop := true;
      incr i
    end
  done;
  finish acc ~exhausted:false

let dfs ?(deadline = fun () -> false) ?(max_schedules = 100_000)
    ?preemption_bound ?(stop_on_first = false) ~run () =
  let acc = acc_create () in
  let d = Strategy.Dfs.create ?preemption_bound () in
  let exhausted = ref false in
  let stop = ref false in
  let i = ref 0 in
  while (not !stop) && (not !exhausted) && !i < max_schedules do
    if deadline () then stop := true
    else begin
      let o = run ~pick:(fun ~last tags -> Strategy.Dfs.pick d ~last tags) in
      record acc ~schedule:!i ~seed:None o;
      if stop_on_first && o.violations <> [] then stop := true
      else if not (Strategy.Dfs.next d) then exhausted := true;
      incr i
    end
  done;
  finish acc ~exhausted:!exhausted
