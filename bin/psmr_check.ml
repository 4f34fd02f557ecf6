(* Model-checking driver for the execution backends — every COS under the
   scheduler runtime a replica starts, and the early class-map dispatcher
   — and for the partitioned merge.

   Examples:
     psmr-check --impl lockfree --schedules 5000 --seed 42
     psmr-check --impl coarse --dfs --commands 4 --workers 2
     psmr-check --impl broken-wtg-start --schedules 2000 --stop-on-first
     psmr-check --impl lockfree --replay 1234567890 --commands 6
     psmr-check --impl early-opt --mis 40 --schedules 2000
     psmr-check --impl early-2 --cross 60 --batch 3 --schedules 2000
     psmr-check --impl early --faults 1:1 --no-respawn --cross 100 \
       --expect-violation

   Exit status: 0 when every explored schedule is clean, 1 when an oracle
   reported a violation, 2 on usage errors.  With --expect-violation the
   meaning of 0 and 1 flips: the run passes only if the oracles fire —
   for planted-bug and crash-stop targets pinned in CI aliases.  An
   exploration whose every schedule hit --max-steps, or a --replay of a
   schedule that hit it without a violation, ran no post-run oracle; it
   prints "inconclusive" and exits 1 either way. *)

open Cmdliner
module Check = Psmr_checker

(* A check target is a backend scenario ([Backend_check]: a COS under the
   scheduler runtime, or the class-map dispatcher, either possibly a
   planted-bug variant) or a partitioned-merge scenario.  The dispatcher
   has four planted bugs: [repair = false] (mis-speculation repair
   disabled — the conflict-order oracle's target), [undo = false] under
   speculation (rollbacks skip the state restore — the
   rollback-consistency oracle's target), [write_gate = false] (writes run
   past still-executing shared reads) and [read_gate = false] (a shared
   read runs before the writes ahead of it complete) — each of the last
   two caught by both. *)
type target =
  | Backend of Check.Backend_check.target
  | Part_target of { name : string; partitions : int; no_barrier : bool }
      (** partitioned-merge divergence scenarios ([Partition_check]);
          [no_barrier] is the planted rendezvous-skipping bug *)

let target_name = function
  | Backend t -> Check.Backend_check.target_name t
  | Part_target p -> p.name

(* The planted-bug variants, each also accepted without its "broken-"
   prefix. *)
let planted =
  let cos name m = (name, Backend (Cos (Custom (name, m)))) in
  let early name = Check.Backend_check.dispatcher ~name in
  [
    cos "broken-wtg-start" (module Check.Broken.Wtg_start);
    cos "broken-lost-signal" (module Check.Broken.Lost_signal);
    cos "broken-no-sentinel" (module Check.Broken.No_sentinel);
    ( "broken-early-norepair",
      Backend (early "broken-early-norepair" ~optimistic:true ~repair:false ())
    );
    ( "broken-early-noundo",
      Backend
        (early "broken-early-noundo" ~optimistic:true ~speculate:true
           ~undo:false ()) );
    ( "broken-early-nogate",
      Backend (early "broken-early-nogate" ~write_gate:false ()) );
    ( "broken-early-readfirst",
      Backend (early "broken-early-readfirst" ~read_gate:false ()) );
    ( "broken-part-nobarrier",
      Part_target
        { name = "broken-part-nobarrier"; partitions = 2; no_barrier = true } );
  ]

let target_conv =
  let parse s =
    let s = String.lowercase_ascii s in
    let part p =
      Ok (Part_target { name = s; partitions = p; no_barrier = false })
    in
    let lookup s = List.assoc_opt s planted in
    match (lookup s, lookup ("broken-" ^ s)) with
    | Some t, _ | None, Some t -> Ok t
    | None, None -> (
        match (s, Psmr_early.Registry.of_string s) with
        | "part", _ -> part 2
        | _ when String.starts_with ~prefix:"part-" s -> (
            match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
            | Some p when p >= 1 -> part p
            | _ -> Error (`Msg (Printf.sprintf "bad partition count in %S" s)))
        | _, Some (Cos i) -> Ok (Backend (Cos (Impl i)))
        | _, Some (Early _ as b) ->
            Ok
              (Backend
                 (Check.Backend_check.dispatcher
                    ~name:(Psmr_early.Registry.to_string b)
                    ?classes:(Psmr_early.Registry.classes b)
                    ~optimistic:(Psmr_early.Registry.is_optimistic b)
                    ()))
        | _, None ->
            Error (`Msg (Printf.sprintf "unknown implementation %S" s)))
  in
  let print ppf t = Format.pp_print_string ppf (target_name t) in
  Arg.conv (parse, print)

let impl_arg =
  Arg.(
    value
    & opt target_conv (Backend (Cos (Impl Psmr_early.Registry.Lockfree)))
    & info [ "impl" ] ~docv:"IMPL"
        ~doc:
          "Implementation to check: a COS under the scheduler runtime \
           (coarse, fine, lockfree, striped[-K], fifo, indexed), the \
           class-map dispatcher (early[-K], early-opt[-K]), part[-P] (the \
           partitioned-merge divergence scenarios; --workers counts \
           replica merges), or a planted-bug variant (broken-wtg-start, \
           broken-lost-signal, broken-no-sentinel, broken-early-norepair, \
           broken-early-noundo, broken-early-nogate, broken-early-readfirst, \
           broken-part-nobarrier).")

let workers_arg =
  Arg.(value & opt int 3 & info [ "workers" ] ~docv:"N" ~doc:"Worker processes.")

let commands_arg =
  Arg.(
    value & opt int 10
    & info [ "commands" ] ~docv:"N" ~doc:"Commands the parallelizer delivers.")

let writes_arg =
  Arg.(
    value & opt float 40.0
    & info [ "writes" ] ~docv:"PCT" ~doc:"Write percentage of the workload.")

let keys_arg =
  Arg.(
    value & opt int 4
    & info [ "keys" ] ~docv:"N"
        ~doc:"Key-space size of the early scenarios' keyed workload.")

let cross_arg =
  Arg.(
    value & opt float 20.0
    & info [ "cross" ] ~docv:"PCT"
        ~doc:
          "Cross-key percentage of the early scenarios' workload — each \
           such command touches a second key, forming cross-class barriers.")

let mis_arg =
  Arg.(
    value & opt float 30.0
    & info [ "mis" ] ~docv:"PCT"
        ~doc:
          "Mis-speculation rate of the optimistic early scenarios: adjacent \
           delivery swaps per position in the speculative stream.")

let spec_arg =
  Arg.(
    value & flag
    & info [ "spec" ]
        ~doc:
          "Execution-time speculation for the optimistic early targets: \
           pending single-queue commands execute against the keyed \
           register file before their confirmation, and mis-speculations \
           are repaired by undo + re-execute (checked by the \
           rollback-consistency oracle).")

let max_size_arg =
  Arg.(
    value & opt int 8
    & info [ "max-size" ] ~docv:"N" ~doc:"COS capacity bound (small values \
        exercise the full-structure path).")

let no_drain_arg =
  Arg.(
    value & flag
    & info [ "no-drain" ]
        ~doc:
          "Close without waiting for execution to finish, racing close \
           against the workers.")

let batch_arg =
  Arg.(
    value & opt int 1
    & info [ "batch" ] ~docv:"K"
        ~doc:
          "The parallelizer hands commands over in $(docv)-command \
           $(b,submit_batch) calls instead of one $(b,submit) each — \
           $(b,insert_batch) on a COS, the batched class-map append on a \
           conservative dispatcher — so the batched path a replica takes \
           runs under the oracles.  Above 1 is a usage error on an \
           optimistic or partition target.  The default 1 replays every \
           earlier seed unchanged.")

let workload_seed_arg =
  Arg.(
    value & opt int64 1L
    & info [ "workload-seed" ] ~docv:"SEED"
        ~doc:"Seed for the command sequence (independent of the schedule seed).")

let seed_arg =
  Arg.(
    value & opt int64 42L
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Base seed for random-walk exploration; run $(i,i) uses a seed \
          derived from it, so one value reproduces the whole batch.")

let schedules_arg =
  Arg.(
    value & opt int 1000
    & info [ "schedules" ] ~docv:"N" ~doc:"Random-walk schedules to explore.")

let dfs_arg =
  Arg.(
    value & flag
    & info [ "dfs" ]
        ~doc:
          "Exhaustive preemption-bounded DFS instead of random walk (use \
           small scenarios).")

let bound_arg =
  Arg.(
    value & opt int 2
    & info [ "preemption-bound" ] ~docv:"K" ~doc:"DFS preemption budget.")

let max_schedules_arg =
  Arg.(
    value & opt int 100_000
    & info [ "max-schedules" ] ~docv:"N" ~doc:"DFS schedule cap.")

let max_steps_arg =
  Arg.(
    value & opt int Check.Check_platform.default_max_steps
    & info [ "max-steps" ] ~docv:"N"
        ~doc:"Decision points per schedule before the run is truncated.")

let time_box_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-box" ] ~docv:"SEC"
        ~doc:"Stop exploring after $(docv) seconds of CPU time.")

let stop_on_first_arg =
  Arg.(
    value & flag
    & info [ "stop-on-first" ] ~doc:"Stop at the first failing schedule.")

let expect_violation_arg =
  Arg.(
    value & flag
    & info [ "expect-violation" ]
        ~doc:
          "Invert the exit status: succeed only if the oracles report a \
           violation.  For pinning planted-bug and crash-stop targets in \
           CI: the run then fails exactly when the checker goes blind.")

let crashes_conv =
  let parse s =
    let parse_one p =
      match String.index_opt p ':' with
      | Some i -> (
          let w = String.sub p 0 i
          and k = String.sub p (i + 1) (String.length p - i - 1) in
          match (int_of_string_opt w, int_of_string_opt k) with
          | Some w, Some k when w >= 1 && k >= 1 -> Ok (w, k)
          | _ -> Error (`Msg (Printf.sprintf "bad crash point %S" p)))
      | None -> Error (`Msg (Printf.sprintf "bad crash point %S (want W:K)" p))
    in
    List.fold_right
      (fun p acc ->
        match (acc, parse_one p) with
        | Ok acc, Ok c -> Ok (c :: acc)
        | (Error _ as e), _ | _, (Error _ as e) -> e)
      (String.split_on_char ',' (String.trim s))
      (Ok [])
  in
  let print ppf cs =
    Format.pp_print_string ppf
      (String.concat "," (List.map (fun (w, k) -> Printf.sprintf "%d:%d" w k) cs))
  in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(
    value
    & opt crashes_conv []
    & info [ "faults" ] ~docv:"W:K,..."
        ~doc:
          "Inject worker crashes: worker $(i,W) dies at its $(i,K)-th \
           reserved command and requeues it (the scheduler's recovery \
           path).  Crash points are logical, so the explorer covers every \
           interleaving of the requeue with the other workers.")

let no_respawn_arg =
  Arg.(
    value & flag
    & info [ "no-respawn" ]
        ~doc:
          "Crashed workers stay dead (crash-stop) instead of re-entering \
           their loop.")

let replay_arg =
  Arg.(
    value
    & opt (some int64) None
    & info [ "replay" ] ~docv:"SEED"
        ~doc:
          "Replay the single schedule of $(docv) (a derived seed printed \
           for a failure) and dump its operation trace.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "With $(b,--replay): also write the operation trace as a Chrome \
           trace-event JSON file (loadable in Perfetto or chrome://tracing) \
           — one track per process, one slice per decision point.")

(* The replayed oplog as a Chrome trace: decision points become the time
   axis (virtual time never advances under the checker), one 1 microsecond
   slice per operation on the acting process's track. *)
let write_oplog_trace ~path (o : Check.Check_platform.outcome) =
  let tr = Psmr_obs.Trace.create () in
  Psmr_obs.Trace.set_process_name tr ~pid:Psmr_obs.Probe.proc_pid "processes";
  List.iteri
    (fun i (p, op) ->
      Psmr_obs.Trace.slice tr ~name:op ~pid:Psmr_obs.Probe.proc_pid ~tid:p
        ~ts:(float_of_int i *. 1e-6)
        ~dur:1e-6)
    o.oplog;
  let oc = open_out path in
  output_string oc (Psmr_obs.Trace.to_json tr);
  close_out oc;
  Printf.printf "trace: %d slices written to %s (%d dropped)\n"
    (Psmr_obs.Trace.count tr) path
    (Psmr_obs.Trace.dropped tr)

let print_failure ~replay_cmd (f : Check.Explore.failure) =
  Printf.printf "  schedule %d%s: %d decision points\n" f.schedule
    (match f.seed with
    | Some s -> Printf.sprintf " (replay seed %Ld)" s
    | None -> "")
    (Array.length f.choices);
  List.iter (fun v -> Printf.printf "    %s\n" v) f.violations;
  match f.seed with
  | Some s -> Printf.printf "    replay: %s\n" (replay_cmd s)
  | None -> ()

let run target workers commands writes keys cross mis spec max_size no_drain
    batch crashes no_respawn workload_seed seed schedules dfs bound
    max_schedules max_steps time_box stop_on_first expect_violation replay
    trace_out =
  let name = target_name target in
  let batched =
    match target with
    | Backend (Cos _) -> true
    | Backend (Dispatcher d) -> not d.optimistic
    | Part_target _ -> false
  in
  if batch < 1 || (batch > 1 && not batched) then begin
    prerr_endline
      "psmr-check: --batch must be 1, or above 1 for a COS or conservative \
       dispatcher target";
    exit 2
  end;
  (* One runner per target family; both run through [Check_platform.run],
     so the exploration drivers below don't care which one they are
     exercising. *)
  let run_schedule ~trace =
    match target with
    | Backend t ->
        let target =
          match t with
          | Dispatcher d when spec ->
              Check.Backend_check.Dispatcher { d with speculate = true }
          | t -> t
        in
        let sc =
          Check.Backend_check.scenario ~target ~workers ~commands ~keys
            ~write_pct:writes ~cross_pct:cross ~mis_pct:mis ~max_size
            ~drain_before_close:(not no_drain) ~crashes
            ~respawn:(not no_respawn) ~batch ~workload_seed ()
        in
        Check.Backend_check.run_schedule ~max_steps ~trace sc
    | Part_target p ->
        let sc =
          Check.Partition_check.scenario ~partitions:p.partitions
            ~replicas:workers ~commands ~cross_pct:cross
            ~no_barrier:p.no_barrier ~workload_seed ()
        in
        Check.Partition_check.run_schedule ~max_steps ~trace sc
  in
  let replay_cmd s =
    let is_early =
      match target with Backend (Dispatcher _) -> true | _ -> false
    in
    let is_part = match target with Part_target _ -> true | _ -> false in
    String.concat ""
      [
        (* [--replay=] rather than [--replay ]: derived seeds are often
           negative, and a bare leading [-] parses as an option. *)
        Printf.sprintf
          "psmr-check --impl %s --replay=%Ld --workers %d --commands %d \
           --writes %g --max-size %d --workload-seed %Ld"
          name s workers commands writes max_size workload_seed;
        (if is_early then
           Printf.sprintf " --keys %d --cross %g --mis %g" keys cross mis
         else if is_part then Printf.sprintf " --cross %g" cross
         else "");
        (if spec then " --spec" else "");
        (if no_drain then " --no-drain" else "");
        (if batch > 1 then Printf.sprintf " --batch %d" batch else "");
        (match crashes with
        | [] -> ""
        | cs ->
            " --faults "
            ^ String.concat ","
                (List.map (fun (w, k) -> Printf.sprintf "%d:%d" w k) cs));
        (if no_respawn then " --no-respawn" else "");
        (if max_steps <> Check.Check_platform.default_max_steps then
           Printf.sprintf " --max-steps %d" max_steps
         else "");
      ]
  in
  (* [dirty = true] when an oracle fired; --expect-violation flips which
     outcome is the passing one. *)
  let finish ~dirty =
    match (dirty, expect_violation) with
    | false, false -> ()
    | true, true -> print_endline "expected violation found"
    | true, false -> exit 1
    | false, true ->
        print_endline "error: expected a violation but every schedule was clean";
        exit 1
  in
  match replay with
  | Some s ->
      let o = Check.Explore.replay ~run:(run_schedule ~trace:true) ~seed:s in
      Printf.printf "replaying seed %Ld on %s: %d decision points%s\n" s name
        o.decisions
        (if o.truncated then " (truncated)" else "");
      List.iter (fun (p, op) -> Printf.printf "  p%-2d %s\n" p op) o.oplog;
      Option.iter (fun path -> write_oplog_trace ~path o) trace_out;
      if o.violations = [] && o.truncated then begin
        (* The replayed schedule ran no post-run oracle, as for an
           exploration whose every schedule was truncated. *)
        print_endline "inconclusive: the schedule hit --max-steps";
        exit 1
      end
      else if o.violations = [] then print_endline "clean: no violations"
      else begin
        print_endline "violations:";
        List.iter (fun v -> Printf.printf "  %s\n" v) o.violations
      end;
      finish ~dirty:(o.violations <> [])
  | None ->
      let deadline =
        match time_box with
        | None -> None
        | Some tb ->
            let t0 = Sys.time () in
            Some (fun () -> Sys.time () -. t0 > tb)
      in
      let r =
        if dfs then
          Check.Explore.dfs ?deadline ~max_schedules ~preemption_bound:bound
            ~stop_on_first ~run:(run_schedule ~trace:false) ()
        else
          Check.Explore.random_walk ?deadline ~stop_on_first
            ~run:(run_schedule ~trace:false) ~seed ~schedules ()
      in
      Printf.printf
        "%s: %d schedules (%d distinct), %d decision points, %d truncated, \
         %d incomplete%s\n"
        name r.schedules r.distinct r.decisions r.truncated r.incomplete
        (if r.exhausted then ", bounded tree exhausted" else "");
      if r.failures = [] && r.schedules > 0 && r.truncated = r.schedules
      then begin
        (* No post-run oracle ran on any schedule: neither clean nor a
           violation, whatever --expect-violation asks for. *)
        Printf.printf "inconclusive: all %d schedules hit --max-steps\n"
          r.schedules;
        exit 1
      end
      else if r.failures = [] then print_endline "clean: no violations"
      else begin
        Printf.printf "%d failing schedule(s):\n" (List.length r.failures);
        let rec take n = function
          | [] -> []
          | _ when n = 0 -> []
          | x :: rest -> x :: take (n - 1) rest
        in
        List.iter (print_failure ~replay_cmd) (take 5 r.failures);
        if List.length r.failures > 5 then
          Printf.printf "  ... and %d more\n" (List.length r.failures - 5)
      end;
      finish ~dirty:(r.failures <> [])

let () =
  let info =
    Cmd.info "psmr-check" ~version:"1.0.0"
      ~doc:
        "Schedule-exploring model checker for the execution backends (the \
         COS implementations under the scheduler runtime, and the early \
         class-map dispatcher) and the partitioned merge: linearizability, \
         data races, invariants, class-barrier deadlocks and conflict \
         order under exhaustively or randomly explored interleavings."
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const run $ impl_arg $ workers_arg $ commands_arg $ writes_arg
            $ keys_arg $ cross_arg $ mis_arg $ spec_arg $ max_size_arg
            $ no_drain_arg $ batch_arg $ faults_arg $ no_respawn_arg $ workload_seed_arg
            $ seed_arg
            $ schedules_arg $ dfs_arg $ bound_arg $ max_schedules_arg
            $ max_steps_arg $ time_box_arg $ stop_on_first_arg
            $ expect_violation_arg $ replay_arg $ trace_out_arg)))
