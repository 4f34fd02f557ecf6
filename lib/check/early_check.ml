(** Early-scheduling scenario runner and oracles for the controlled
    scheduler — the [Psmr_early.Dispatch] counterpart of {!Cos_check}.

    A scenario is a fixed concurrent program: one parallelizer process
    feeding a fixed keyed-footprint command sequence to the class-map
    dispatcher (conservatively in final order, or optimistically in a
    disordered stream confirmed in final order), and the dispatcher's own
    worker processes looping over their per-class token FIFOs.  With
    [speculate] on, the commands run against a real keyed register file
    through the dispatcher's undo capability, so optimistic executions
    happen before their confirmations and mis-speculations are repaired
    by undo + re-execute.  [run_schedule] executes the program once under
    a given picker and applies the oracles:

    - {b conflict order}: for every conflicting pair [a] before [b] in
      final delivery order, [a]'s committed execution must finish
      strictly before [b]'s begins — on optimistic runs this is exactly
      what the repair path must restore, and the deliberately broken
      [repair = false] and [write_gate = false] variants are caught here;
    - {b rollback consistency}: at quiescence the register file, and the
      values each committed execution observed, must equal a sequential
      replay of the commands in final delivery order — a rolled-back
      write that survives (the [undo = false] planted bug) or a command
      committed against rolled-back state is caught here;
    - {b exactly-once}: effects are applied at most once between
      rollbacks, never after commit, and on completed runs every command
      commits exactly once with its effects in place;
    - {b class-barrier deadlock}: when the run halts with work left, a
      partially-arrived rendezvous is reported via
      [Dispatch.stalled_barriers] — the signature failure of a worker
      crash-stopping inside a barrier;
    - {b happens-before races} on instrumented cells and the dispatcher's
      {b structural invariants} (ghost snapshots; strict at quiescence). *)

module Engine = Psmr_sim.Engine

(* Commands as the dispatcher sees them: an index in final delivery order
   plus an explicit key footprint; conflict iff a shared key with at least
   one writer. *)
module Cmd = struct
  type t = { idx : int; fp : (int * bool) list }

  let footprint c = c.fp

  let conflict a b =
    List.exists
      (fun (k, w) -> List.exists (fun (k', w') -> k = k' && (w || w')) b.fp)
      a.fp

  let pp ppf c =
    Format.fprintf ppf "#%d{%s}" c.idx
      (String.concat ";"
         (List.map
            (fun (k, w) -> Printf.sprintf "%d%s" k (if w then "w" else "r"))
            c.fp))
end

type scenario = {
  workers : int;
  classes : int option;  (* class-map size; [None] = one class per worker *)
  footprints : (int * bool) list array;  (* commands in final delivery order *)
  max_size : int;
  optimistic : bool;
      (* [true]: feed through submit_optimistic (in an order disordered by
         [mis_pct]) + confirm in final order; [false]: conservative submit *)
  mis_pct : float;
  opt_seed : int64;  (* seeds the optimistic disorder, per scenario *)
  repair : bool;
      (* [false] disables the mis-speculation repair — the planted bug the
         conflict-order oracle must catch under optimism *)
  write_gate : bool;
      (* [false] lets writes run past still-executing shared read
         rendezvous — the planted bug the conflict-order and
         rollback-consistency oracles must catch *)
  speculate : bool;
      (* [true]: install the undo-capable execution hook, so pending
         single-queue tokens execute before confirmation *)
  undo : bool;
      (* [false] with [speculate]: rollbacks skip the state restore — the
         planted bug the rollback-consistency oracle must catch *)
  drain_before_close : bool;
  crashes : (int * int) list;
      (* [(w, k)]: worker [w] crashes at its [k]-th token fetch (1-based),
         requeueing the token at the queue front.  Logical points; the
         picker explores every interleaving, including crashes after
         barrier partners already arrived. *)
  respawn : bool;  (* [true]: the crashed worker re-enters its loop *)
}

let scenario ?(workers = 3) ?classes ?(commands = 10) ?(keys = 4)
    ?(write_pct = 40.0) ?(cross_pct = 20.0) ?(optimistic = false)
    ?(mis_pct = 30.0) ?(repair = true) ?(write_gate = true)
    ?(speculate = false) ?(undo = true) ?(max_size = 8)
    ?(drain_before_close = true) ?(crashes = []) ?(respawn = true)
    ~workload_seed () =
  if workers <= 0 then
    invalid_arg "Early_check.scenario: workers must be positive";
  if commands < 0 then invalid_arg "Early_check.scenario: negative command count";
  if keys <= 0 then invalid_arg "Early_check.scenario: keys must be positive";
  if max_size <= 0 then
    invalid_arg "Early_check.scenario: max_size must be positive";
  List.iter
    (fun (w, k) ->
      if w < 1 || w > workers || k < 1 then
        invalid_arg "Early_check.scenario: crash point out of range")
    crashes;
  let rng = Psmr_util.Rng.create ~seed:workload_seed in
  let spec =
    {
      Psmr_workload.Workload.Keyed.keys;
      write_pct;
      cross_pct;
      cost = Psmr_workload.Workload.Light;
      mis_pct;
    }
  in
  let footprints =
    Array.init commands (fun _ ->
        Psmr_workload.Workload.Keyed.next_footprint spec rng)
  in
  {
    workers;
    classes;
    footprints;
    max_size;
    optimistic;
    mis_pct;
    opt_seed = Psmr_util.Rng.int64 rng;
    repair;
    write_gate;
    speculate;
    undo;
    drain_before_close;
    crashes;
    respawn;
  }

(* The register-file effect of command [i] writing over value [v]: an
   injective-enough mixing step keyed by the command index, so a write
   applied in the wrong order, applied twice, or surviving a rollback
   leaves a value no correct history can produce. *)
let mix v i = (v * 1_000_003) + i + 1

let run_schedule ?(max_steps = 50_000) ?(trace = false) ?(metrics = false) sc
    ~(pick : last:int -> int array -> int) : Cos_check.outcome =
  let engine = Engine.create () in
  let ctx = Check_platform.create engine in
  Check_platform.set_tracing ctx trace;
  let registry =
    if metrics then
      Some
        (Psmr_obs.Metrics.make
           ~now:(fun () -> float_of_int (Check_platform.ops ctx))
           ~track:(fun () -> Engine.running_tag engine)
           ())
    else None
  in
  let (module P) = Check_platform.make ctx in
  let module ED = Psmr_early.Dispatch.Make (P) (Cmd) in
  let n = Array.length sc.footprints in
  let violations = ref [] in
  let viol fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let keys =
    Array.fold_left
      (fun acc fp -> List.fold_left (fun acc (k, _) -> max acc (k + 1)) acc fp)
      1 sc.footprints
  in
  (* The service under test: one integer register per key.  Execution
     reads every footprint key and mixes written ones; the undo closure
     restores the written registers.  All bookkeeping is plain mutation —
     the engine serializes fibers, so these cells are ghost state. *)
  let state = Array.make keys 0 in
  let started_at = Array.make n (-1) in
  let ended_at = Array.make n (-1) in
  let execs = Array.make n 0 in
  let undone = Array.make n 0 in
  let live = Array.make n false in
  let committed = Array.make n false in
  let obs = Array.make n [] in
  let done_sem = P.Semaphore.create 0 in
  (* Shared execution body; [started_at]/[ended_at]/[obs] keep the *last*
     execution — the committed one on completed runs — so the conflict
     order and replay oracles judge what actually took effect. *)
  let apply (c : Cmd.t) =
    let i = c.Cmd.idx in
    execs.(i) <- execs.(i) + 1;
    if live.(i) then
      viol "double execution: command %d re-executed without rollback" i;
    if committed.(i) then viol "command %d re-executed after commit" i;
    live.(i) <- true;
    started_at.(i) <- Check_platform.ticket ctx;
    let saved = ref [] in
    let seen = ref [] in
    List.iter
      (fun (k, w) ->
        let v = state.(k) in
        seen := v :: !seen;
        if w then begin
          saved := (k, v) :: !saved;
          state.(k) <- mix v i
        end)
      c.Cmd.fp;
    obs.(i) <- List.rev !seen;
    (* A decision point inside the execution window, so schedules exist in
       which a conflicting command's execution could overlap this one —
       without it the window would be atomic and an overlap unobservable. *)
    P.yield ();
    ended_at.(i) <- Check_platform.ticket ctx;
    !saved
  in
  let execute (c : Cmd.t) = ignore (apply c : (int * int) list) in
  let speculate =
    if not sc.speculate then None
    else
      Some
        (fun (c : Cmd.t) ->
          let saved = apply c in
          fun () ->
            let i = c.Cmd.idx in
            undone.(i) <- undone.(i) + 1;
            if not live.(i) then
              viol "rollback of command %d whose effects were not applied" i;
            if committed.(i) then viol "rollback of committed command %d" i;
            live.(i) <- false;
            if sc.undo then
              List.iter (fun (k, v) -> state.(k) <- v) saved)
  in
  let on_commit (c : Cmd.t) =
    let i = c.Cmd.idx in
    if committed.(i) then viol "double commit: command %d" i;
    if not live.(i) then
      viol "commit of command %d whose effects were rolled back" i;
    committed.(i) <- true;
    P.Semaphore.release done_sem
  in
  let fault ~id ~nth =
    if List.mem (id, nth) sc.crashes then
      Psmr_fault.Fault.Crash
        { respawn_after = (if sc.respawn then Some 1e-9 else None) }
    else Psmr_fault.Fault.Run
  in
  let d =
    ED.start_full ~max_size:sc.max_size ?classes:sc.classes ~repair:sc.repair
      ~write_gate:sc.write_gate ?speculate ~on_commit ~fault ~workers:sc.workers
      ~execute ()
  in
  let inv ~strict () =
    Check_platform.with_ghost ctx (fun () ->
        List.iter (fun e -> viol "invariant [early]: %s" e)
          (ED.invariant ~strict d))
  in
  let parallelizer_done = ref false in
  P.spawn ~name:"parallelizer" (fun () ->
      (if not sc.optimistic then
         Array.iteri
           (fun i fp ->
             ED.submit d { Cmd.idx = i; fp };
             inv ~strict:false ())
           sc.footprints
       else begin
         (* Optimistic protocol, block-wise so the in-flight window can
            never wedge on unconfirmed speculations: submit each block in
            an order disordered by [mis_pct], confirm in final order. *)
         let orng = Psmr_util.Rng.create ~seed:sc.opt_seed in
         let specs = Array.make n None in
         let base = ref 0 in
         while !base < n do
           let len = min sc.max_size (n - !base) in
           let idxs = Array.init len (fun j -> !base + j) in
           let opt =
             Psmr_early.Spec_stream.disorder ~swap_pct:sc.mis_pct ~rng:orng
               idxs
           in
           Array.iter
             (fun i ->
               specs.(i) <-
                 Some
                   (ED.submit_optimistic d
                      { Cmd.idx = i; fp = sc.footprints.(i) });
               inv ~strict:false ())
             opt;
           Array.iter
             (fun i ->
               ED.confirm d (Option.get specs.(i));
               inv ~strict:false ())
             idxs;
           base := !base + len
         done
       end);
      if sc.drain_before_close then
        for _ = 1 to n do
          P.Semaphore.acquire done_sem
        done;
      ED.close d;
      inv ~strict:false ();
      parallelizer_done := true);
  let decisions = ref 0 in
  let choices = ref [] in
  let last = ref 0 in
  let truncated = ref false in
  Engine.set_picker engine
    (Some
       (fun tags ->
         incr decisions;
         if !decisions > max_steps then raise Cos_check.Truncated;
         let idx = pick ~last:!last tags in
         let idx = if idx < 0 || idx >= Array.length tags then 0 else idx in
         last := tags.(idx);
         choices := tags.(idx) :: !choices;
         idx));
  Option.iter Psmr_obs.Metrics.enable registry;
  Fun.protect
    ~finally:(fun () ->
      if Option.is_some registry then Psmr_obs.Metrics.disable ())
    (fun () ->
      try Engine.run engine with
      | Cos_check.Truncated -> truncated := true
      | e -> viol "uncaught exception: %s" (Printexc.to_string e));
  (* Ghost read: the run is over, but [running_tag] still names the last
     process, so a bare platform read would try to yield outside any
     fiber. *)
  let executed = Check_platform.with_ghost ctx (fun () -> ED.executed d) in
  let completed = (not !truncated) && !parallelizer_done && executed = n in
  if not !truncated then begin
    (* Deadlock diagnostics: the engine halted with work left.  A
       partially-arrived rendezvous is the class-barrier deadlock the
       crash-stop scenarios must surface. *)
    if (not !parallelizer_done) || executed < n then begin
      let stalled =
        Check_platform.with_ghost ctx (fun () -> ED.stalled_barriers d)
      in
      List.iter (fun s -> viol "class-barrier deadlock: %s" s) stalled;
      viol "deadlock: %d of %d commands never executed%s" (n - executed) n
        (if !parallelizer_done then "" else " (parallelizer blocked)")
    end;
    if completed then begin
      Array.iteri
        (fun i c ->
          if c = 0 then viol "lost command: %d was never executed" i
          else if not committed.(i) then
            viol "lost command: %d executed but never committed" i
          else if not live.(i) then
            viol "lost command: %d committed with its effects rolled back" i)
        execs;
      (* Rollback consistency: the register file and each committed
         execution's observations must match a sequential replay in final
         delivery order.  A rolled-back write that survived (no-undo bug)
         diverges here even when every structural oracle is clean. *)
      let seq = Array.make keys 0 in
      Array.iteri
        (fun i fp ->
          let seen =
            List.map
              (fun (k, w) ->
                let v = seq.(k) in
                if w then seq.(k) <- mix v i;
                v)
              fp
          in
          if committed.(i) && obs.(i) <> seen then
            viol
              "rollback consistency: command %d observed [%s], sequential \
               replay gives [%s]"
              i
              (String.concat ";" (List.map string_of_int obs.(i)))
              (String.concat ";" (List.map string_of_int seen)))
        sc.footprints;
      Array.iteri
        (fun k v ->
          if state.(k) <> v then
            viol
              "rollback consistency: key %d ends at %d, sequential replay \
               gives %d"
              k state.(k) v)
        seq;
      inv ~strict:true ()
    end;
    (* Conflict order over the committed executions — also meaningful on
       deadlocked runs without execution-time optimism; with it, partial
       runs may legitimately hold un-repaired speculation, so the oracle
       only applies at completion. *)
    if completed || not sc.speculate then
      for b = 0 to n - 1 do
        if started_at.(b) >= 0 then
          for a = 0 to b - 1 do
            if
              Cmd.conflict
                { Cmd.idx = a; fp = sc.footprints.(a) }
                { Cmd.idx = b; fp = sc.footprints.(b) }
            then
              if execs.(a) = 0 then
                viol
                  "conflict order violated: %d executed while conflicting \
                   older %d was still pending"
                  b a
              else if ended_at.(a) < 0 || ended_at.(a) >= started_at.(b) then
                viol
                  "conflict order violated: %d (ended@%d) must precede %d \
                   (started@%d)"
                  a ended_at.(a) b started_at.(b)
          done
      done
  end;
  List.iter
    (fun r -> viol "%s" (Format.asprintf "%a" Check_platform.pp_race r))
    (Check_platform.races ctx);
  let choices = Array.of_list (List.rev !choices) in
  {
    Cos_check.completed;
    violations = List.rev !violations;
    decisions = !decisions;
    truncated = !truncated;
    choices;
    trace_hash = Cos_check.hash_choices choices;
    oplog = Check_platform.oplog ctx;
    metrics =
      (match registry with
      | Some m -> Psmr_obs.Metrics.assoc m
      | None -> []);
  }
