(* Standalone scheduler experiments (paper §7.3, Figures 2 and 3, and the
   keyed early-vs-COS grid): one feeder thread at maximum rate, W workers
   over any backend of the early-scheduling registry, no SMR stack.  The
   command execution cost occupies one of the {!Model.cores} simulated
   cores for the command's precomputed cost. *)

(* Commands as the backends see them: a footprint (the conflict relation is
   derived from it: shared key with at least one writer) and the
   precomputed execution cost. *)
module Cmd = struct
  type t = {
    fp : (int * bool) list;
    cost : float;  (** simulated CPU seconds to execute *)
  }

  let footprint c = c.fp

  let conflict a b =
    List.exists
      (fun (k, w) -> List.exists (fun (k', w') -> k = k' && (w || w')) b.fp)
      a.fp

  let is_write c = List.exists snd c.fp

  let pp ppf c =
    Format.fprintf ppf "{%s}"
      (String.concat ";"
         (List.map
            (fun (k, w) -> Printf.sprintf "%d%s" k (if w then "w" else "r"))
            c.fp))
end

type workload =
  | Paper of Psmr_workload.Workload.spec
  | Keyed of Psmr_workload.Workload.Keyed.spec

(* The paper's readers/writers list is one shared key, read or written: a
   read conflicts with a write, a write with everything. *)
let gen = function
  | Paper (spec : Psmr_workload.Workload.spec) ->
      fun rng ->
        let w = Psmr_util.Rng.below_percent rng spec.write_pct in
        { Cmd.fp = [ (0, w) ]; cost = Model.exec_cost spec.cost ~is_write:w }
  | Keyed spec ->
      fun rng ->
        let fp = Psmr_workload.Workload.Keyed.next_footprint spec rng in
        {
          Cmd.fp;
          cost = Model.exec_cost spec.cost ~is_write:(List.exists snd fp);
        }

type result = {
  kops : float;
  executed : int;
  mean_population : float;
  engine_events : int;
  wall_seconds : float;
  faults_injected : int;
  crashed_workers : int;
  direct : int;
  rendezvous : int;
  repairs : int;
  revoked : int;
  dropped : int;
  spec_execs : int;
  rollbacks : int;
  redos : int;
  redo_depth : int;
  metrics : Psmr_obs.Metrics.t option;
  trace : Psmr_obs.Trace.t option;
}

let default_duration = 0.08
let default_warmup = 0.02

(* Block size of the optimistic pipeline: how far optimistic delivery runs
   ahead of final delivery.  Adjacent transpositions displace a command by
   one position, so any block >= 2 is sound; 32 gives the window a
   realistic speculated prefix. *)
let opt_block = 32

type handle = {
  feed : unit -> unit;  (** one feeder step: submit the next command(s) *)
  in_flight : unit -> int;
  crashed_workers : unit -> int;
  with_counts : result -> result;
      (** Copy the dispatcher's counters into a result (identity for COS
          backends). *)
}

(* A backend started on a simulated run, with the feeder step that drives
   it from [next]; [disorder] permutes an optimistic block's submission
   order.  Execution charges [Cmd.cost] on the run's CPU bank; a
   completion (execution, or commit for an optimistic backend) is counted
   by {!Sim_run.tick}. *)
let start ?max_size ~workers ~batch ~next ~disorder sim backend =
  let (module SP) = Sim_run.platform sim in
  let exec (c : Cmd.t) = Sim_run.exec sim c.cost in
  let on_done _ = Sim_run.tick sim in
  let execute c =
    exec c;
    on_done c
  in
  (* The conservative feed: one command per submit, or [batch] per
     delivery through the batched path, as from an ordering protocol. *)
  let feed submit submit_batch =
    if batch = 1 then fun () -> submit (next ())
    else fun () -> submit_batch (Array.init batch (fun _ -> next ()))
  in
  match (backend : Psmr_early.Registry.backend) with
  | Early cfg ->
      let module D = Psmr_early.Dispatch.Make (SP) (Cmd) in
      (* Execution-time optimism: execution charges its CPU cost whether
         speculative or committed, the undo itself is a store-back
         (negligible next to execution, and the rollback sweep already
         charges dispatcher work), and only commits complete — work that
         is rolled back must not inflate throughput. *)
      let d =
        if cfg.optimistic then
          D.start_full ?max_size ?classes:cfg.classes
            ~speculate:(fun c ->
              exec c;
              fun () -> ())
            ~on_commit:on_done ~workers ~execute:exec ()
        else D.start_full ?max_size ?classes:cfg.classes ~workers ~execute ()
      in
      let feed =
        if not cfg.optimistic then feed (D.submit d) (D.submit_batch d)
        else begin
          (* Optimistic protocol, pipelined like the replica's two
             delivery streams: optimistic delivery (submission in the
             disordered order) and final delivery (confirmation in final
             order) are separate simulated processes coupled by a block
             channel, with the dispatcher window as the only
             backpressure.  Serializing confirm behind submit in one
             feeder thread is exactly the 2x hot-path regression this
             layout fixes: both streams cost ~1us of feeder time per
             command, so interleaving them halves the submission rate
             even at 0% mis-speculation. *)
          let module MB = Psmr_platform.Mailbox.Make (SP) in
          let ch = MB.create () in
          Sim_run.forever sim ~name:"confirmer" (fun () ->
              Option.iter (Array.iter (D.confirm d)) (MB.take ch));
          (* Each step generates a block of commands in final order and
             submits it optimistically in disordered order. *)
          let order = Array.init opt_block Fun.id in
          fun () ->
            let finals = Array.init opt_block (fun _ -> next ()) in
            let entries = Array.make opt_block None in
            Array.iter
              (fun i -> entries.(i) <- Some (D.submit_optimistic d finals.(i)))
              (disorder order);
            ignore (MB.put ch (Array.map Option.get entries) : bool)
        end
      in
      {
        feed;
        in_flight = (fun () -> D.in_flight d);
        crashed_workers = (fun () -> D.crashed_workers d);
        with_counts =
          (fun r ->
            {
              r with
              direct = D.direct_count d;
              rendezvous = D.rendezvous_count d;
              repairs = D.repair_count d;
              revoked = D.revoked_count d;
              dropped = D.dropped d;
              spec_execs = D.spec_exec_count d;
              rollbacks = D.rollback_count d;
              redos = D.redo_count d;
              redo_depth = D.redo_depth_max d;
            });
      }
  | Cos _ ->
      let (module Bk) =
        Psmr_early.Registry.instantiate backend (module SP) (module Cmd)
      in
      let b = Bk.start ?max_size ~workers ~execute () in
      {
        feed = feed (Bk.submit b) (Bk.submit_batch b);
        in_flight = (fun () -> Bk.in_flight b);
        crashed_workers = (fun () -> Bk.crashed_workers b);
        with_counts = Fun.id;
      }

let run ~backend ~workers ~workload ?max_size ?(batch = 1) ?costs
    ?(duration = default_duration) ?(warmup = default_warmup) ?(seed = 42L)
    ?faults ?metrics ?trace ?probe_engine () =
  if batch < 1 then invalid_arg "Standalone.run: batch must be >= 1";
  (match faults with
  | Some { Psmr_fault.Schedule.replicas = _ :: _; _ } ->
      invalid_arg "Standalone.run: replica-crash, but a standalone run has \
                   no replica"
  | Some _ | None -> ());
  Sim_run.with_sim ?costs ?faults ?metrics ?trace ?probe_engine @@ fun sim ->
  let rng = Psmr_util.Rng.create ~seed in
  (* The keyed stream splits its speculation stream off the seed before the
     first command; the paper stream never mis-speculates. *)
  let disorder =
    match workload with
    | Paper _ -> Fun.id
    | Keyed spec ->
        Psmr_early.Spec_stream.disorder ~swap_pct:spec.mis_pct
          ~rng:(Psmr_util.Rng.split rng)
  in
  let gen = gen workload in
  let next () = gen rng in
  let b = start ?max_size ~workers ~batch ~next ~disorder sim backend in
  (* The feeder inserts as fast as the backend admits (§7.3: "one thread
     looped without waiting interval ... and invoked insert"). *)
  Sim_run.forever sim ~name:"feeder" b.feed;
  let mean_population = Sim_run.population_probe sim b.in_flight in
  let wall_seconds = Sim_run.run sim ~warmup ~duration in
  b.with_counts
    {
      kops = Sim_run.kops sim;
      executed = Sim_run.completed sim;
      mean_population = mean_population ();
      engine_events = Sim_run.events sim;
      wall_seconds;
      faults_injected = Sim_run.faults_injected sim;
      crashed_workers = b.crashed_workers ();
      direct = 0;
      rendezvous = 0;
      repairs = 0;
      revoked = 0;
      dropped = 0;
      spec_execs = 0;
      rollbacks = 0;
      redos = 0;
      redo_depth = 0;
      metrics = Sim_run.metrics sim;
      trace = Sim_run.trace sim;
    }
