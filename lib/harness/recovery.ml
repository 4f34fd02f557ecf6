(** Single-replica crash/recovery harness: checkpointing, log replay, and
    the machinery the recovery-equivalence tests exercise.

    The replica consumes a fixed, totally ordered command log — the output
    of the ordering layer — through the standard scheduler/COS pipeline on
    the simulated platform.  Every [checkpoint_every] commands it drains
    the pipeline and snapshots the service (checkpoints never overlap
    execution, as {!Psmr_app.Service_intf.S.snapshot} requires).

    A replica crash from an armed fault plan ([replica-crash=0@T+D]) kills
    the current epoch: the in-flight COS and its workers are abandoned
    (workers still holding commands turn into no-ops, modelling the
    process dying with its run-time state), the doomed service heap is
    discarded, and after the scheduled recovery delay a fresh epoch starts
    from the last durable checkpoint — restore the snapshot, build a fresh
    COS, redeliver every logged command after the checkpoint.  Determinism
    of the service plus the conflict-order guarantee of the COS make the
    replayed replies byte-identical to the fault-free run's; the
    equivalence suite in test/test_fault.ml holds every implementation to
    exactly that. *)

module Make (Service : Psmr_app.Service_intf.S) = struct
  type outcome = {
    completed : bool;
        (** The whole log executed (always true unless the plan ends with
            an unrecovered crash). *)
    final_state : string;  (** {!Service.snapshot} after the last command. *)
    replies : string array;
        (** Rendered response per log position; [""] where never executed. *)
    crashes : int;
    recoveries : int;
    checkpoints : int;
    replayed : int;  (** Commands redelivered by recoveries. *)
    end_time : float;  (** Virtual time when the log finished draining. *)
  }

  (* Commands travel through the COS tagged with their log position so the
     executor can file replies; conflicts ignore the position. *)
  module C = struct
    type t = int * Service.command

    let conflict (_, a) (_, b) = Service.conflict a b
    let footprint (_, c) = Service.footprint c
    let pp ppf (i, c) = Format.fprintf ppf "%d:%a" i Service.pp_command c
  end

  let default_exec_cost _ = 2e-6

  let run ~impl ~workers ~state ~(log : Service.command array)
      ?(checkpoint_every = 32) ?(faults = Psmr_fault.Schedule.empty)
      ?(costs = Model.sim_costs) ?(exec_cost = default_exec_cost) () =
    if workers <= 0 then invalid_arg "Recovery.run: workers must be positive";
    if checkpoint_every <= 0 then
      invalid_arg "Recovery.run: checkpoint_every must be positive";
    let n = Array.length log in
    Sim_run.with_sim ~costs ~faults @@ fun sim ->
    let engine = Sim_run.engine sim in
    let (module SP) = Sim_run.platform sim in
    let (module Cos : Psmr_cos.Cos_intf.S with type cmd = int * Service.command)
        =
      Psmr_cos.Registry.instantiate_keyed impl (module SP) (module C)
    in
    let module Sched = Psmr_sched.Scheduler.Make (SP) (Cos) in
    let replies = Array.make n "" in
    let crashes = ref 0
    and recoveries = ref 0
    and checkpoints = ref 0
    and replayed = ref 0 in
    let hwm = ref 0 (* highest log index ever submitted, for replay count *)
    and completed = ref false
    and end_time = ref 0.0
    and final_state = ref "" in
    Psmr_sim.Engine.spawn engine ~name:"replica" (fun () ->
        (* One epoch per replica incarnation.  [ckpt] is the durable state:
           a snapshot plus the log position it covers. *)
        let rec epoch ~ckpt =
          let svc = state () in
          let start =
            match ckpt with
            | None -> 0
            | Some (snap, index) ->
                Service.restore svc snap;
                index
          in
          if start < !hwm then replayed := !replayed + (!hwm - start);
          let dead = ref false and recover_delay = ref None in
          (* Crash monitor: park until the next scheduled crash of this
             replica (id 0), then flip the epoch's death flag.  The flag is
             plain state — the monitor never touches the doomed scheduler,
             whose processes simply stop mattering. *)
          (match Psmr_fault.Fault.replica_crash_pending ~id:0 with
          | None -> ()
          | Some at ->
              SP.spawn ~name:"crash-monitor" (fun () ->
                  let now = SP.now () in
                  if at > now then SP.sleep (at -. now);
                  match Psmr_fault.Fault.replica ~id:0 with
                  | Some (`Crash r) ->
                      dead := true;
                      recover_delay := r;
                      incr crashes
                  | None -> ()));
          let execute (i, cmd) =
            (* A dead epoch's workers do nothing: the crashed process takes
               no CPU and its replies are never sent.  Anything they were
               holding is beyond the last checkpoint, so replay covers it. *)
            if not !dead then begin
              Sim_run.exec sim (exec_cost cmd);
              if not !dead then
                replies.(i) <-
                  Format.asprintf "%a" Service.pp_response
                    (Service.execute svc cmd)
            end
          in
          let sched = Sched.start ~workers ~execute () in
          let ckpt = ref ckpt in
          let idx = ref start in
          while (not !dead) && !idx < n do
            Sched.submit sched (!idx, log.(!idx));
            if !idx >= !hwm then hwm := !idx + 1;
            incr idx;
            if !idx mod checkpoint_every = 0 && !idx < n then begin
              Sched.drain sched;
              (* The drain is a barrier: no execute is running, so the
                 snapshot is consistent.  Skip it if the crash landed while
                 draining — a dying replica persists nothing. *)
              if not !dead then begin
                ckpt := Some (Service.snapshot svc, !idx);
                incr checkpoints
              end
            end
          done;
          if !dead then begin
            match !recover_delay with
            | None -> () (* crash-stop: the log never finishes *)
            | Some d ->
                SP.sleep d;
                incr recoveries;
                Psmr_obs.Probe.fault `Recovery;
                epoch ~ckpt:!ckpt
          end
          else begin
            Sched.shutdown sched;
            if !dead then begin
              (* Crash raced the final drain: recover if scheduled. *)
              match !recover_delay with
              | None -> ()
              | Some d ->
                  SP.sleep d;
                  incr recoveries;
                  Psmr_obs.Probe.fault `Recovery;
                  epoch ~ckpt:!ckpt
            end
            else begin
              completed := true;
              end_time := SP.now ();
              final_state := Service.snapshot svc
            end
          end
        in
        epoch ~ckpt:None);
    Psmr_sim.Engine.run engine;
    {
      completed = !completed;
      final_state = !final_state;
      replies;
      crashes = !crashes;
      recoveries = !recoveries;
      checkpoints = !checkpoints;
      replayed = !replayed;
      end_time = !end_time;
    }
end
