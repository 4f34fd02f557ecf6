(* Facade-discipline rules.  Two subsystems expose a deliberately narrow
   facade to the runtime layers:

   - observability: the recording layers — the platforms (lib/platform/,
     lib/sim/), scheduling and ordering (lib/cos/, lib/sched/,
     lib/early/, lib/broadcast/), the runtime (lib/replica/, lib/net/,
     lib/fault/) and the traffic engine (lib/traffic/) — may record
     events only through [Psmr_obs.Probe]; touching the metric table or
     trace buffer directly would bypass the probe vocabulary, couple
     algorithms to registry internals and break the
     zero-cost-when-disabled discipline;
   - fault injection: runtime layers (lib/cos/, lib/early/, lib/sched/,
     lib/replica/, lib/net/, lib/broadcast/, lib/traffic/) may only
     *ask* [Psmr_fault.Fault]; arming plans or poking schedules from
     runtime code would let an algorithm see or steer the fault plan.

   Aliasing the library root ([module O = Psmr_obs]) is fine by itself —
   uses through the alias still resolve to their canonical path and are
   judged on the submodule they actually reach. *)

let facade ~id ~root ~allowed ~dirs ~doc ~message =
  let bad path =
    match path with
    | r :: m :: _ -> r = root && m <> allowed
    | _ -> false
  in
  let check (input : Rule.input) =
    List.filter_map
      (fun (f : Scope.fact) ->
        match f.ev with
        | Scope.Value path | Scope.Module path | Scope.Type path ->
            if bad path then Some (Rule.diag input ~id f.loc message)
            else None)
      input.info.facts
  in
  {
    Rule.id;
    doc;
    applies = (fun path -> List.exists (fun d -> Rule.in_dir d path) dirs);
    check;
  }

let rules =
  [
    facade ~id:"obs-facade" ~root:"Psmr_obs" ~allowed:"Probe"
      ~dirs:
        [
          "lib/platform/";
          "lib/sim/";
          "lib/cos/";
          "lib/sched/";
          "lib/early/";
          "lib/broadcast/";
          "lib/replica/";
          "lib/net/";
          "lib/fault/";
          "lib/traffic/";
        ]
      ~doc:"recording layers record observability only through Psmr_obs.Probe"
      ~message:
        "recording layers may record observability events only through \
         Psmr_obs.Probe";
    facade ~id:"fault-facade" ~root:"Psmr_fault" ~allowed:"Fault"
      ~dirs:
        [
          "lib/cos/";
          "lib/early/";
          "lib/sched/";
          "lib/replica/";
          "lib/net/";
          "lib/broadcast/";
          "lib/traffic/";
        ]
      ~doc:
        "runtime layers consult fault injection only through \
         Psmr_fault.Fault"
      ~message:
        "runtime layers may consult fault injection only through the \
         Psmr_fault.Fault facade";
  ]
