(** Execution-backend scenario runner and oracles for the controlled
    scheduler.

    A scenario is a fixed concurrent program over one of the two
    backends a replica runs.  One parallelizer process feeds a fixed
    command sequence — one [submit] per command, [batch]-command
    [submit_batch] calls, or (optimistic dispatcher) a stream disordered
    by [mis_pct] and confirmed in final order — and the backend's own
    {!Psmr_sched.Pool} workers run one execution body against a keyed
    register file.  A COS target runs inside
    [Psmr_sched.Scheduler.Make (P) (Observed (Cos))], the very runtime a
    replica starts; crash points go in through the pool's fault hook, so
    the requeue that follows a crash is the backend's own.  With
    [speculate] on, the dispatcher executes optimistically through the
    undo capability and repairs mis-speculations by undo + re-execute.

    Oracles, applied to every explored schedule:

    - {b conflict order}: for every conflicting pair [a] before [b] in
      final delivery order, [a]'s committed execution must finish
      strictly before [b]'s begins — on optimistic runs this is exactly
      what the repair path must restore;
    - {b rollback consistency}: at quiescence the register file, and the
      values each committed execution observed, must equal a sequential
      replay of the commands in final delivery order;
    - {b exactly-once}: effects are applied at most once between
      rollbacks, never after commit, and on completed runs every command
      commits exactly once with its effects in place;
    - {b deadlock}: the run ends with every command executed and, on a
      COS target, every worker returned from [get]; otherwise a
      partially-arrived write rendezvous, or a ready read no worker took,
      is named via [Dispatch.stalled_barriers] — the signature failure of
      a worker crash-stopping inside a barrier;
    - {b the COS specification} (§3.3), kept by {!Observed} at the
      structure the runtime drives: [get] returns [None] only after
      [close] began, no command is reserved twice at once, and for every
      conflicting pair [remove a] precedes [get b];
    - {b happens-before races} on instrumented cells and the structure's
      {b invariants} (ghost snapshots after every operation; strict at
      quiescence). *)

open Psmr_platform
open Psmr_cos
module Registry = Psmr_early.Registry

(* Commands as both backends see them: an index in final delivery order
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

type cos = Impl of Registry.impl | Custom of string * (module Cos_intf.IMPL)

type dispatcher = {
  name : string;
  classes : int option;
  optimistic : bool;
  repair : bool;
  write_gate : bool;
  read_gate : bool;
  speculate : bool;
  undo : bool;
}

type target = Cos of cos | Dispatcher of dispatcher

let target_name = function
  | Cos (Impl i) -> Registry.to_string (Registry.Cos i)
  | Cos (Custom (name, _)) | Dispatcher { name; _ } -> name

let dispatcher ?(name = "early") ?classes ?(optimistic = false)
    ?(repair = true) ?(write_gate = true) ?(read_gate = true)
    ?(speculate = false) ?(undo = true) () =
  Dispatcher
    {
      name;
      classes;
      optimistic;
      repair;
      write_gate;
      read_gate;
      speculate;
      undo;
    }

type scenario = {
  target : target;
  workers : int;
  footprints : (int * bool) list array;
  max_size : int;
  mis_pct : float;
  opt_seed : int64;
  drain_before_close : bool;
  crashes : (int * int) list;
  respawn : bool;
  batch : int;
}

let scenario ?(target = Cos (Impl Registry.Lockfree)) ?(workers = 3)
    ?(commands = 10) ?(keys = 4) ?(write_pct = 40.0) ?(cross_pct = 20.0)
    ?(mis_pct = 30.0) ?(max_size = 8) ?(drain_before_close = true)
    ?(crashes = []) ?(respawn = true) ?(batch = 1) ~workload_seed () =
  let bad m = invalid_arg ("Backend_check.scenario: " ^ m) in
  if workers <= 0 then bad "workers must be positive";
  if commands < 0 then bad "negative command count";
  if keys <= 0 then bad "keys must be positive";
  if max_size <= 0 then bad "max_size must be positive";
  if batch <= 0 then bad "batch must be positive";
  (match target with
  | Dispatcher { optimistic = true; _ } when batch > 1 ->
      bad "an optimistic feed submits one command at a time"
  | Cos _ | Dispatcher _ -> ());
  List.iter
    (fun (w, k) ->
      if w < 1 || w > workers || k < 1 then bad "crash point out of range")
    crashes;
  let rng = Psmr_util.Rng.create ~seed:workload_seed in
  let footprints =
    match target with
    | Cos _ ->
        Array.init commands (fun _ ->
            [ (0, Psmr_util.Rng.below_percent rng write_pct) ])
    | Dispatcher _ ->
        let spec =
          {
            Psmr_workload.Workload.Keyed.keys;
            write_pct;
            cross_pct;
            cost = Psmr_workload.Workload.Light;
            mis_pct;
          }
        in
        Array.init commands (fun _ ->
            Psmr_workload.Workload.Keyed.next_footprint spec rng)
  in
  {
    target;
    workers;
    footprints;
    max_size;
    mis_pct;
    opt_seed = Psmr_util.Rng.int64 rng;
    drain_before_close;
    crashes;
    respawn;
    batch;
  }

(* The COS-level oracles, wrapped around the structure the runtime drives:
   every operation the scheduler's workers and the parallelizer perform
   goes through here, so the checks see exactly the production calls. *)
module type OBSERVER = sig
  val label : string
  val ctx : Check_platform.t
  val viol : ('a, unit, string, unit) format4 -> 'a
  val commands : int

  val commit : Cmd.t -> unit
  (** The shared exactly-once commit, which also counts the command
      towards the parallelizer's drain-before-close. *)
end

module Observed (O : OBSERVER) (S : Cos_intf.S with type cmd = Cmd.t) =
struct
  include S

  let got_at = Array.make O.commands (-1)
  let removed_at = Array.make O.commands (-1)
  let got = Array.make O.commands 0
  let requeued = Array.make O.commands 0
  let close_started = ref (-1)
  let returned = ref 0 (* worker loops ended by a [None] *)
  let structure = ref None

  let inv ~strict t =
    Check_platform.with_ghost O.ctx (fun () ->
        List.iter (O.viol "invariant [%s]: %s" O.label) (S.invariant ~strict t))

  let create ?max_size ?worker_bound () =
    let t = S.create ?max_size ?worker_bound () in
    structure := Some t;
    t

  let get t =
    let r = S.get t in
    (match r with
    | None ->
        if !close_started < 0 then
          O.viol "get returned None before close started";
        incr returned
    | Some h ->
        let i = (S.command h).idx in
        got.(i) <- got.(i) + 1;
        (* A command may be reserved once, plus once more per requeue that
           preceded this get — anything beyond that is two workers holding
           it concurrently. *)
        if got.(i) > 1 + requeued.(i) then
          O.viol "double get: command %d reserved twice" i
        else if got_at.(i) < 0 then got_at.(i) <- Check_platform.ticket O.ctx;
        inv ~strict:false t);
    r

  let requeue t h =
    let i = (S.command h).idx in
    requeued.(i) <- requeued.(i) + 1;
    S.requeue t h;
    inv ~strict:false t

  (* The removal is stamped before it is invoked, so a correct COS can
     never produce an inverted pair: its internal effect is strictly after
     this ticket, and a later [get] of a dependent strictly after that. *)
  let remove t h =
    let c = S.command h in
    if removed_at.(c.idx) < 0 then
      removed_at.(c.idx) <- Check_platform.ticket O.ctx;
    S.remove t h;
    inv ~strict:false t;
    O.commit c

  let close t =
    close_started := Check_platform.ticket O.ctx;
    S.close t

  (* §3.3: for every conflicting [a] inserted before [b], [remove a]
     precedes [get b] — also meaningful on deadlocked runs. *)
  let check_order footprints =
    Array.iteri
      (fun b fb ->
        if got_at.(b) >= 0 then
          for a = 0 to b - 1 do
            if
              Cmd.conflict
                { idx = a; fp = footprints.(a) }
                { idx = b; fp = fb }
              && (removed_at.(a) < 0 || removed_at.(a) >= got_at.(b))
            then
              O.viol
                "conflict order violated: %d (removed@%d) must precede %d \
                 (got@%d)"
                a removed_at.(a) b got_at.(b)
          done)
      footprints
end

(* What the parallelizer and the post-run oracles drive, the same for
   both backends.  [executed], [stalled] and [workers_left] are read in
   ghost mode. *)
type driver = {
  submit : Cmd.t -> unit;
  submit_batch : Cmd.t array -> unit;
  submit_optimistic : (Cmd.t -> unit -> unit) option;
      (* an optimistic dispatcher's submission; returns its confirmation *)
  close : unit -> unit;
  invariant : strict:bool -> unit;  (* reports what it finds *)
  executed : unit -> int;
  stalled : unit -> string list;  (* partially-arrived rendezvous *)
  workers_left : unit -> int;  (* worker loops still running *)
  post : unit -> unit;  (* backend-specific post-run oracles *)
}

(* The register-file effect of command [i] writing over value [v]: an
   injective-enough mixing step keyed by the command index, so a write
   applied in the wrong order, applied twice, or surviving a rollback
   leaves a value no correct history can produce. *)
let mix v i = (v * 1_000_003) + i + 1

let run_schedule ?max_steps ?trace ?metrics sc ~pick =
  Check_platform.run ?max_steps ?trace ?metrics ~pick
  @@ fun ctx (module P : Platform_intf.S) ~viol ->
  let viol fmt = Printf.ksprintf viol fmt in
  let ghost f = Check_platform.with_ghost ctx f in
  let n = Array.length sc.footprints in
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
  let live = Array.make n false in
  let committed = Array.make n false in
  let obs = Array.make n [] in
  let done_sem = P.Semaphore.create 0 in
  (* The one execution body; [started_at]/[ended_at]/[obs] keep the
     {e last} execution — the committed one on completed runs — so the
     conflict order and replay oracles judge what actually took effect. *)
  let apply (c : Cmd.t) =
    let i = c.idx in
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
      c.fp;
    obs.(i) <- List.rev !seen;
    (* A decision point inside the execution window, so schedules exist in
       which a conflicting command's execution could overlap this one —
       without it the window would be atomic and an overlap unobservable. *)
    P.yield ();
    ended_at.(i) <- Check_platform.ticket ctx;
    !saved
  in
  let execute c = ignore (apply c : (int * int) list) in
  let commit (c : Cmd.t) =
    let i = c.idx in
    if committed.(i) then viol "double commit: command %d" i;
    if not live.(i) then
      viol "commit of command %d whose effects were rolled back" i;
    committed.(i) <- true;
    P.Semaphore.release done_sem
  in
  let stopped = ref 0 in
  let fault ~id ~nth =
    if List.mem (id, nth) sc.crashes then begin
      if not sc.respawn then incr stopped;
      Psmr_fault.Fault.Crash
        { respawn_after = (if sc.respawn then Some 1e-9 else None) }
    end
    else Psmr_fault.Fault.Run
  in
  let d =
    match sc.target with
    | Dispatcher dt ->
        let module D = Psmr_early.Dispatch.Make (P) (Cmd) in
        let speculate =
          if not dt.speculate then None
          else
            Some
              (fun (c : Cmd.t) ->
                let saved = apply c in
                fun () ->
                  let i = c.idx in
                  if not live.(i) then
                    viol
                      "rollback of command %d whose effects were not applied" i;
                  if committed.(i) then
                    viol "rollback of committed command %d" i;
                  live.(i) <- false;
                  if dt.undo then
                    List.iter (fun (k, v) -> state.(k) <- v) saved)
        in
        let t =
          D.start_full ~max_size:sc.max_size ?classes:dt.classes
            ~repair:dt.repair ~write_gate:dt.write_gate ~read_gate:dt.read_gate
            ?speculate ~on_commit:commit ~fault ~workers:sc.workers ~execute ()
        in
        {
          submit = D.submit t;
          submit_batch = D.submit_batch t;
          submit_optimistic =
            (if dt.optimistic then
               Some
                 (fun c ->
                   let s = D.submit_optimistic t c in
                   fun () -> D.confirm t s)
             else None);
          close = (fun () -> D.close t);
          invariant =
            (fun ~strict ->
              ghost (fun () ->
                  List.iter (viol "invariant [early]: %s")
                    (D.invariant ~strict t)));
          executed = (fun () -> D.executed t);
          stalled = (fun () -> D.stalled_barriers t);
          workers_left = (fun () -> 0);
          post = ignore;
        }
    | Cos c ->
        let (module S : Cos_intf.S with type cmd = Cmd.t) =
          match c with
          | Impl impl -> Registry.instantiate_cos impl (module P) (module Cmd)
          | Custom (_, (module F)) -> (module F (P) (Cmd))
        in
        let module O =
          Observed
            (struct
              let label = target_name sc.target
              let ctx = ctx
              let viol = viol
              let commands = n
              let commit = commit
            end)
            (S)
        in
        let module R = Psmr_sched.Scheduler.Make (P) (O) in
        let r =
          R.start ~fault ~max_size:sc.max_size ~workers:sc.workers ~execute ()
        in
        let cos = Option.get !O.structure in
        {
          submit = R.submit r;
          submit_batch = R.submit_batch r;
          submit_optimistic = None;
          close = (fun () -> O.close cos);
          invariant = (fun ~strict -> O.inv ~strict cos);
          executed = (fun () -> R.executed r);
          stalled = (fun () -> []);
          workers_left = (fun () -> sc.workers - !O.returned - !stopped);
          post = (fun () -> O.check_order sc.footprints);
        }
  in
  let cmd i = { Cmd.idx = i; fp = sc.footprints.(i) } in
  let parallelizer_done = ref false in
  P.spawn ~name:"parallelizer" (fun () ->
      (match d.submit_optimistic with
      | None ->
          let rec feed off =
            if off < n then begin
              let k = min sc.batch (n - off) in
              if sc.batch = 1 then d.submit (cmd off)
              else d.submit_batch (Array.init k (fun j -> cmd (off + j)));
              d.invariant ~strict:false;
              feed (off + k)
            end
          in
          feed 0
      | Some submit_optimistic ->
          (* Block-wise, so the in-flight window can never wedge on
             unconfirmed speculations: submit each block in an order
             disordered by [mis_pct], confirm in final order. *)
          let orng = Psmr_util.Rng.create ~seed:sc.opt_seed in
          let confirms = Array.make n ignore in
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
                confirms.(i) <- submit_optimistic (cmd i);
                d.invariant ~strict:false)
              opt;
            Array.iter
              (fun i ->
                confirms.(i) ();
                d.invariant ~strict:false)
              idxs;
            base := !base + len
          done);
      if sc.drain_before_close then
        for _ = 1 to n do
          P.Semaphore.acquire done_sem
        done;
      d.close ();
      d.invariant ~strict:false;
      parallelizer_done := true);
  fun () ->
  (* Ghost reads: the run is over, but [running_tag] still names the last
     process, so a bare platform read would try to yield outside any
     fiber. *)
  let executed = ghost d.executed in
  let halted = (not !parallelizer_done) || executed < n in
  if halted then begin
    List.iter (viol "class-barrier deadlock: %s") (ghost d.stalled);
    viol "deadlock: %d of %d commands never executed%s" (n - executed) n
      (if !parallelizer_done then "" else " (parallelizer blocked)")
  end;
  let left = d.workers_left () in
  if left > 0 then
    viol "deadlock: %d of %d workers never finished" left sc.workers;
  let completed = (not halted) && left = 0 in
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
    d.invariant ~strict:true
  end;
  d.post ();
  (* Conflict order over the committed executions — also meaningful on
     deadlocked runs without execution-time speculation; with it, partial
     runs may legitimately hold un-repaired speculation, so the oracle
     only applies at completion. *)
  let speculating =
    match sc.target with Dispatcher dt -> dt.speculate | Cos _ -> false
  in
  if completed || not speculating then
    for b = 0 to n - 1 do
      if started_at.(b) >= 0 then
        for a = 0 to b - 1 do
          if Cmd.conflict (cmd a) (cmd b) then
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
    done;
  completed
