open Psmr_platform

let make (engine : Engine.t) (costs : Costs.t) : (module Platform_intf.S) =
  (module struct
    let name = "sim"

    (* The timed hooks: every operation charges its cost as one delay, and
       a process resumed after blocking pays the wake-up.  No
       happens-before state is kept. *)
    include Sim_sync.Make (struct
      type obj = unit

      let engine = engine
      let obj () = ()

      let enter () (op : Sim_sync.op) =
        Engine.delay
          (match op with
          | Lock -> costs.mutex_lock
          | Unlock -> costs.mutex_unlock
          | Wait -> costs.condition_wait +. costs.mutex_unlock
          | Signal | Broadcast -> costs.condition_signal
          | Acquire | Release -> costs.semaphore_op
          | Value -> 0.0
          | Get -> costs.atomic_read
          | Set | Exchange | Cas | Faa -> costs.atomic_write)

      let woken () = Engine.delay costs.wakeup
      let released () = ()
      let acquired () = ()
      let written () ~plain:_ = ()
    end)

    let spawn ?name f = Engine.spawn engine ?name f
    let yield () = Engine.yield ()
    let now () = Engine.now engine
    let sleep d = Engine.delay d
    let after d f = Engine.spawn engine ~delay:d f

    let work (kind : Platform_intf.work_kind) =
      match kind with
      | Visit ->
          Psmr_obs.Probe.work `Visit;
          Engine.delay costs.visit
      | Conflict_check ->
          Psmr_obs.Probe.work `Conflict;
          Engine.delay costs.conflict_check
      | Alloc ->
          Psmr_obs.Probe.work `Alloc;
          Engine.delay costs.alloc
      | Marshal ->
          Psmr_obs.Probe.work `Marshal;
          Engine.delay costs.marshal
      | Hash ->
          Psmr_obs.Probe.work `Hash;
          Engine.delay costs.hash
      | Fault ->
          Psmr_obs.Probe.work `Fault;
          Engine.delay costs.fault
  end)
