(** Standalone keyed-workload experiments on the DES: one feeder thread at
    maximum rate, W workers, any execution backend from the early-scheduling
    registry — the harness the early-vs-COS comparison runs on.

    Conservative backends are fed through the generic
    {!Psmr_sched.Sched_intf.BACKEND} submit path; the [early-opt] backend
    is driven through the optimistic protocol: commands are generated in
    blocks, optimistically submitted in an order disordered by the
    workload's [mis_pct] (adjacent transpositions, see
    {!Psmr_early.Spec_stream}), then confirmed in final order.  The
    optimistic runs install the dispatcher's speculation hook, so
    execution happens at optimistic delivery and a mis-speculation costs
    undo + re-execution; completions are therefore counted at commit
    time, never for work that is later rolled back. *)

(* Commands as the dispatchers see them: a footprint (the conflict
   relation is derived from it: shared key with at least one writer) and
   the precomputed execution cost. *)
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

let gen (spec : Psmr_workload.Workload.Keyed.spec) rng =
  let fp = Psmr_workload.Workload.Keyed.next_footprint spec rng in
  { Cmd.fp; cost = Model.exec_cost spec.cost ~is_write:(List.exists snd fp) }

type result = {
  kops : float;  (** completed commands per second, in thousands *)
  executed : int;
  mean_population : float;  (** mean in-flight commands during the window *)
  engine_events : int;  (** DES events the run executed *)
  wall_seconds : float;  (** wall-clock cost of the simulation loop *)
  faults_injected : int;
  crashed_workers : int;
  direct : int;  (** fast-path dispatches (early backends; 0 for COS) *)
  rendezvous : int;  (** cross-class barrier dispatches *)
  repairs : int;  (** confirmations that found a mis-speculation *)
  revoked : int;  (** commands revoked and re-enqueued by repairs *)
  dropped : int;  (** speculations never confirmed (0 in steady state) *)
  spec_execs : int;  (** speculative executions (early-opt; 0 otherwise) *)
  rollbacks : int;  (** executed commands undone by repairs *)
  redos : int;  (** re-executions of rolled-back commands *)
  redo_depth : int;  (** max executions of any single command *)
  metrics : Psmr_obs.Metrics.t option;
}

(* Block size of the optimistic pipeline: how far optimistic delivery runs
   ahead of final delivery.  Adjacent transpositions displace a command by
   one position, so any block >= 2 is sound; 32 gives the window a
   realistic speculated prefix. *)
let opt_block = 32

type handle = {
  submit : Cmd.t -> unit;
  submit_batch : Cmd.t array -> unit;
  submit_block : int array -> Cmd.t array -> unit;
      (** [submit_block order finals] (optimistic backends only): submit
          [finals.(i)] optimistically for each [i] of [order], then hand
          the block to the confirmer, which confirms it in final order. *)
  in_flight : unit -> int;
  crashed_workers : unit -> int;
  with_counts : result -> result;
      (** Copy the dispatcher's counters into a result (identity for COS
          backends). *)
}

let no_block _ _ = invalid_arg "Keyed_bench.start: submit_block needs early-opt"

(* A backend started on a simulated run.  Execution charges [Cmd.cost] on
   the run's CPU bank; a completion (execution, or commit for an
   optimistic backend) is counted by {!Sim_run.tick}. *)
let start ?max_size ~workers sim backend =
  let (module SP) = Sim_run.platform sim in
  let exec (c : Cmd.t) = Sim_run.exec sim c.cost in
  let on_done _ = Sim_run.tick sim in
  let execute c =
    exec c;
    on_done c
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
      let submit_block =
        if not cfg.optimistic then no_block
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
          let ch = Queue.create () in
          let ch_m = SP.Mutex.create () in
          let ch_cv = SP.Condition.create () in
          Sim_run.forever sim ~name:"confirmer" (fun () ->
              SP.Mutex.lock ch_m;
              while Queue.is_empty ch do
                SP.Condition.wait ch_cv ch_m
              done;
              let block = Queue.pop ch in
              SP.Mutex.unlock ch_m;
              Array.iter (fun e -> D.confirm d e) block);
          fun order finals ->
            let entries = Array.make (Array.length finals) None in
            Array.iter
              (fun i -> entries.(i) <- Some (D.submit_optimistic d finals.(i)))
              order;
            let block = Array.map Option.get entries in
            SP.Mutex.lock ch_m;
            Queue.push block ch;
            SP.Condition.signal ch_cv;
            SP.Mutex.unlock ch_m
        end
      in
      {
        submit = D.submit d;
        submit_batch = D.submit_batch d;
        submit_block;
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
        submit = Bk.submit b;
        submit_batch = Bk.submit_batch b;
        submit_block = no_block;
        in_flight = (fun () -> Bk.in_flight b);
        crashed_workers = (fun () -> Bk.crashed_workers b);
        with_counts = Fun.id;
      }

let run ~backend ~workers ~(spec : Psmr_workload.Workload.Keyed.spec)
    ?max_size ?(batch = 1) ?costs ?(duration = Standalone.default_duration)
    ?(warmup = Standalone.default_warmup) ?(seed = 42L) ?faults ?metrics
    ?probe_engine () =
  if batch < 1 then invalid_arg "Keyed_bench.run: batch must be >= 1";
  Sim_run.with_sim ?costs ?faults ?metrics ?probe_engine @@ fun sim ->
  let rng = Psmr_util.Rng.create ~seed in
  let srng = Psmr_util.Rng.split rng in
  let next () = gen spec rng in
  let b = start ?max_size ~workers sim backend in
  Sim_run.forever sim ~name:"feeder"
    (if Psmr_early.Registry.is_optimistic backend then begin
       let order = Array.init opt_block Fun.id in
       fun () ->
         let finals = Array.init opt_block (fun _ -> next ()) in
         b.submit_block
           (Psmr_early.Spec_stream.disorder ~swap_pct:spec.mis_pct ~rng:srng
              order)
           finals
     end
     else if batch <= 1 then fun () -> b.submit (next ())
     else fun () -> b.submit_batch (Array.init batch (fun _ -> next ())));
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
    }
