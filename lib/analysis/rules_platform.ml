(* platform-primitives: everything in lib/ and bin/ is functorized over
   [Platform_intf.S] precisely so the same algorithm code runs on real
   threads, on the deterministic simulator and under the model checker.
   Reaching for the real concurrency primitives or the wall clock directly
   silently breaks that, so any resolved reference to them — value use,
   module alias, functor argument, open, or type — is an error everywhere
   except the modules whose job is to provide them:
   lib/platform/real_platform.{ml,mli} (the OS-thread platform) and
   lib/sim/grid_runner.{ml,mli} (the simulator's one sanctioned door to
   domains and the wall clock).

   Inside lib/sim the bar is higher still: the simulator is the
   deterministic substrate everything else is verified against, so any
   resolved [Domain] or [Unix] reference there — not just the wall-clock
   entry points — is flagged.  A parallel grid goes through
   [Psmr_sim.Grid_runner]; nothing else in the simulator may fork real
   parallelism or reach the OS.

   Two references are confined to their owner files.  The suspending
   primitives are written once, in [Psmr_sim.Sim_sync.Make], for both the
   timed simulator and the model checker.  A second copy would have to park
   processes itself, so [Psmr_sim.Engine.suspend] may be referenced only by
   the engine and by lib/sim/sim_sync.ml.  Every deployment orders through
   [Psmr_broadcast.Partition] (one partition is the single sequencer), so
   [Psmr_broadcast.Abcast.Make] may be instantiated only by
   lib/broadcast/partition.ml: a second ordering stack beside it would
   need its own wire kind and its own catch-up.

   Because facts arrive with aliasing already resolved, the evasions the
   old string scanner missed ([module M = Mutex ... M.lock],
   [let module T = Thread], a local [module Mutex] shadow undone by a later
   [open Stdlib]) land here as plain [Mutex]/[Thread] references. *)

let banned = [ "Mutex"; "Condition"; "Thread"; "Atomic"; "Semaphore" ]
let wall_clock = [ [ "Unix"; "gettimeofday" ]; [ "Unix"; "sleepf" ] ]

(* Banned wholesale inside lib/sim (outside grid_runner): real parallelism
   and any OS call, not just the wall clock. *)
let sim_banned = [ "Domain"; "Unix" ]

(* A confined reference: its path as resolved anywhere, and without the
   library prefix as written inside the library's own directory [dir]. *)
type confined = {
  path : string list;
  dir : string;
  owners : string list;
  message : string;
}

let confined =
  [
    {
      path = [ "Psmr_sim"; "Engine"; "suspend" ];
      dir = "lib/sim/";
      owners = [ "lib/sim/engine.ml"; "lib/sim/sim_sync.ml" ];
      message =
        "Psmr_sim.Engine.suspend outside lib/sim/sim_sync.ml — blocking \
         primitives are implemented once, in Sim_sync.Make; give the \
         platform Sim_sync hooks instead";
    };
    {
      path = [ "Psmr_broadcast"; "Abcast"; "Make" ];
      dir = "lib/broadcast/";
      owners = [ "lib/broadcast/partition.ml" ];
      message =
        "Psmr_broadcast.Abcast.Make outside lib/broadcast/partition.ml — \
         every deployment orders through Psmr_broadcast.Partition (the \
         single sequencer is one partition)";
    };
  ]

let id = "platform-primitives"

let msg what =
  Printf.sprintf
    "direct use of %s — go through the Platform_intf.S functor parameter \
     instead"
    what

let sim_msg what =
  Printf.sprintf
    "direct use of %s inside lib/sim — real parallelism and OS calls are \
     confined to the sanctioned grid-runner module (Psmr_sim.Grid_runner)"
    what

let check (input : Rule.input) =
  let in_sim = Rule.in_dir "lib/sim/" input.path in
  let breach path =
    List.find_opt
      (fun c ->
        (path = c.path || (Rule.in_dir c.dir input.path && path = List.tl c.path))
        && not (List.exists (fun o -> Rule.has_suffix o input.path) c.owners))
      confined
  in
  List.filter_map
    (fun (f : Scope.fact) ->
      let flag ~m what = Some (Rule.diag input ~id f.loc (m what)) in
      let flag_head head =
        if in_sim && List.mem head sim_banned then flag ~m:sim_msg head
        else None
      in
      match f.ev with
      | (Scope.Value path | Scope.Module path) when breach path <> None ->
          Option.map (fun c -> Rule.diag input ~id f.loc c.message) (breach path)
      | Scope.Value (head :: _ :: _) when List.mem head banned ->
          flag ~m:msg head
      | Scope.Value path when List.mem path wall_clock ->
          flag ~m:msg (String.concat "." path)
      | Scope.Value (head :: _ :: _) -> flag_head head
      | Scope.Module (head :: _) when List.mem head banned -> flag ~m:msg head
      | Scope.Module (head :: _) -> flag_head head
      | Scope.Type (head :: _ :: _) when List.mem head banned ->
          flag ~m:msg head
      | Scope.Type (head :: _ :: _) -> flag_head head
      | _ -> None)
    input.info.facts

let rules =
  [
    {
      Rule.id;
      doc =
        "concurrency/timing primitives (Mutex, Condition, Thread, Atomic, \
         Semaphore, wall clock) only via the Platform_intf.S functor \
         parameter; Domain/Unix confined to Grid_runner inside lib/sim; \
         Engine.suspend only in the engine and Sim_sync; Abcast.Make only \
         in Partition";
      applies =
        (fun path ->
          not
            (Rule.has_suffix "lib/platform/real_platform.ml" path
            || Rule.has_suffix "lib/platform/real_platform.mli" path
            || Rule.has_suffix "lib/sim/grid_runner.ml" path
            || Rule.has_suffix "lib/sim/grid_runner.mli" path));
      check;
    };
  ]
