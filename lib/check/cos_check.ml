(** COS scenario runner and oracles for the controlled scheduler.

    A {e scenario} is a fixed concurrent program: one inserter process
    (the sequencing scheduler of Algorithm 1) inserting a fixed
    readers-writers command sequence, one command or one [insert_batch] of
    [batch] commands at a time, and [workers] worker processes
    looping over [get; remove] until [get] returns [None] — the very loop
    the production runtime runs, against the very COS functor the figures
    measure.  [run_schedule] executes the scenario once under a given
    picker and returns everything the oracles observed.

    Oracles, applied to every explored schedule:

    - {b linearizability against the §3.3 sequential specification}:
      every inserted command is returned by [get] exactly once and removed
      (close drains); for every conflicting pair [a] inserted before [b],
      [remove a] precedes [get b] (no command executes while a conflicting
      older command is still in the structure); [get] returns [None] only
      after [close] has begun;
    - {b happens-before races} on instrumented cells (see
      {!Check_platform});
    - {b per-implementation structural invariants}
      ([Cos_intf.S.invariant]), snapshotted in ghost mode after every
      completed operation and strictly at quiescence;
    - {b deadlock}: the run ends with every process finished, or the
      blocked processes are reported. *)

open Psmr_cos

(* Readers-writers commands, the paper's application model: writes conflict
   with everything, reads only with writes. *)
module Cmd = struct
  type t = { idx : int; write : bool }

  let conflict a b = a.write || b.write

  (* One shared variable: the footprint view of the same relation. *)
  let footprint c = [ (0, c.write) ]
  let pp ppf c = Format.fprintf ppf "%s%d" (if c.write then "w" else "r") c.idx
end

module Registry = Psmr_early.Registry

type target =
  | Impl of Registry.impl
  | Custom of string * (module Cos_intf.IMPL)

let target_name = function
  | Impl i -> Registry.to_string (Cos i)
  | Custom (name, _) -> name

type scenario = {
  target : target;
  workers : int;
  writes : bool array;  (* one command per entry, in delivery order *)
  max_size : int;
  drain_before_close : bool;
      (* [true]: the inserter waits for every command to be executed before
         calling [close] (the production shutdown protocol).  [false]:
         [close] races with the workers — exercising the close-drain path. *)
  crashes : (int * int) list;
      (* [(w, k)]: worker [w] crashes at its [k]-th reserved command (1-based):
         it requeues the command instead of executing it.  Logical points, not
         times — virtual time never advances under the checker — and the
         picker explores every interleaving of the requeue with the other
         workers' operations. *)
  respawn : bool;
      (* [true]: a crashed worker recovers (re-enters its loop, modelling the
         scheduler's respawn path); [false]: crash-stop, the pool shrinks. *)
  batch : int;
      (* [1]: the inserter calls [insert] per command; [k > 1]: it hands
         the commands over in [k]-command [insert_batch] calls (the last
         one shorter), exercising the batched admission path. *)
}

let scenario ?(target = Impl Registry.Lockfree) ?(workers = 3) ?(commands = 10)
    ?(write_pct = 40.0) ?(max_size = 8) ?(drain_before_close = true)
    ?(crashes = []) ?(respawn = true) ?(batch = 1) ~workload_seed () =
  if workers <= 0 then invalid_arg "Cos_check.scenario: workers must be positive";
  if batch <= 0 then invalid_arg "Cos_check.scenario: batch must be positive";
  if commands < 0 then invalid_arg "Cos_check.scenario: negative command count";
  List.iter
    (fun (w, k) ->
      if w < 1 || w > workers || k < 1 then
        invalid_arg "Cos_check.scenario: crash point out of range")
    crashes;
  let rng = Psmr_util.Rng.create ~seed:workload_seed in
  let writes =
    Array.init commands (fun _ -> Psmr_util.Rng.below_percent rng write_pct)
  in
  {
    target;
    workers;
    writes;
    max_size;
    drain_before_close;
    crashes;
    respawn;
    batch;
  }

let run_schedule ?max_steps ?trace ?metrics sc ~pick =
  Check_platform.run ?max_steps ?trace ?metrics ~pick
  @@ fun ctx (module P : Psmr_platform.Platform_intf.S) ~viol ->
  let viol fmt = Printf.ksprintf viol fmt in
  let (module S : Cos_intf.S with type cmd = Cmd.t) =
    match sc.target with
    | Impl impl -> Registry.instantiate_cos impl (module P) (module Cmd)
    | Custom (_, (module F)) -> (module F (P) (Cmd))
  in
  let name = target_name sc.target in
  let n = Array.length sc.writes in
  let t = S.create ~max_size:sc.max_size () in
  let inv ~strict () =
    Check_platform.with_ghost ctx (fun () ->
        List.iter (fun e -> viol "invariant [%s]: %s" name e)
          (S.invariant ~strict t))
  in
  let got_at = Array.make n (-1) in
  let removed_at = Array.make n (-1) in
  let got_count = Array.make n 0 in
  let requeued = Array.make n 0 in
  let close_started = ref (-1) in
  let finished = ref 0 in
  let total_tasks = sc.workers + 1 in
  let done_sem = P.Semaphore.create 0 in
  let cmd i = { Cmd.idx = i; write = sc.writes.(i) } in
  P.spawn ~name:"inserter" (fun () ->
      let rec feed off =
        if off < n then begin
          let k = min sc.batch (n - off) in
          if sc.batch = 1 then S.insert t (cmd off)
          else S.insert_batch t (Array.init k (fun j -> cmd (off + j)));
          inv ~strict:false ();
          feed (off + k)
        end
      in
      feed 0;
      if sc.drain_before_close then
        for _ = 1 to n do
          P.Semaphore.acquire done_sem
        done;
      close_started := Check_platform.ticket ctx;
      S.close t;
      inv ~strict:false ();
      incr finished);
  for w = 1 to sc.workers do
    P.spawn
      ~name:(Printf.sprintf "worker-%d" w)
      (fun () ->
        let gets = ref 0 in
        let rec loop () =
          match S.get t with
          | None ->
              if !close_started < 0 then
                viol "get returned None before close started";
              incr finished
          | Some h ->
              incr gets;
              let c = S.command h in
              let i = c.Cmd.idx in
              got_count.(i) <- got_count.(i) + 1;
              (* A command may be reserved once, plus once more per requeue
                 that preceded this get — anything beyond that is two
                 workers holding it concurrently. *)
              if got_count.(i) > 1 + requeued.(i) then
                viol "double get: command %d reserved twice" i
              else if got_at.(i) < 0 then
                got_at.(i) <- Check_platform.ticket ctx;
              inv ~strict:false ();
              (* Command execution: a decision point between [get] and
                 [remove], so schedules exist in which other workers [get]
                 while this command is still in the structure — without it
                 the whole got-to-removed window would run in one atomic
                 step and an illegal concurrent [get] could never be
                 observed. *)
              P.yield ();
              if List.mem (w, !gets) sc.crashes then begin
                (* Injected crash point: die holding the reservation.  The
                   scheduler's recovery path returns the command via
                   [requeue]; every interleaving of the demotion with the
                   other workers is the picker's to explore. *)
                requeued.(i) <- requeued.(i) + 1;
                S.requeue t h;
                inv ~strict:false ();
                if sc.respawn then begin
                  P.yield ();
                  loop ()
                end
                else incr finished
              end
              else begin
                (* Stamp the removal before invoking it, so a correct COS
                   can never produce an inverted conflict pair (no false
                   positives: the internal removal effect is strictly after
                   this ticket, and a later [get] of a dependent is strictly
                   after that). *)
                if removed_at.(i) < 0 then
                  removed_at.(i) <- Check_platform.ticket ctx;
                S.remove t h;
                inv ~strict:false ();
                P.Semaphore.release done_sem;
                loop ()
              end
        in
        loop ())
  done;
  fun () ->
  let completed = !finished = total_tasks in
  if completed then begin
    Array.iteri
      (fun i g ->
        if g = 0 then viol "lost command: %d was never executed" i)
      got_count;
    inv ~strict:true ()
  end
  else
    viol "deadlock: %d of %d processes never finished"
      (total_tasks - !finished)
      total_tasks;
  (* Conflict order, checked over whatever executed — also meaningful on
     deadlocked runs. *)
  for b = 0 to n - 1 do
    if got_at.(b) >= 0 then
      for a = 0 to b - 1 do
        if
          Cmd.conflict
            { Cmd.idx = a; write = sc.writes.(a) }
            { Cmd.idx = b; write = sc.writes.(b) }
          && got_count.(a) > 0
          && (removed_at.(a) < 0 || removed_at.(a) >= got_at.(b))
        then
          viol
            "conflict order violated: %s%d (removed@%d) must precede %s%d \
             (got@%d)"
            (if sc.writes.(a) then "w" else "r")
            a removed_at.(a)
            (if sc.writes.(b) then "w" else "r")
            b got_at.(b)
        else if
          Cmd.conflict
            { Cmd.idx = a; write = sc.writes.(a) }
            { Cmd.idx = b; write = sc.writes.(b) }
          && got_count.(a) = 0
        then
          viol
            "conflict order violated: %s%d executed while conflicting older \
             %s%d was still pending"
            (if sc.writes.(b) then "w" else "r")
            b
            (if sc.writes.(a) then "w" else "r")
            a
      done
  done;
  completed
