(* Correctness tests for the Conflict-Ordered Set implementations, exercised
   generically across coarse-grained, fine-grained and lock-free variants,
   on both the real-thread platform and the simulated platform. *)

open Psmr_cos
module RP = Psmr_platform.Real_platform
module Registry = Psmr_early.Registry

(* A readers-writers command, mirroring the paper's application model:
   writes conflict with everything, reads only with writes. *)
module Rw_cmd = struct
  type t = { idx : int; write : bool }

  let conflict a b = a.write || b.write

  (* Footprint view of the same relation: one shared variable. *)
  let footprint c = [ (0, c.write) ]
  let pp ppf c = Format.fprintf ppf "%s%d" (if c.write then "w" else "r") c.idx
end

let read idx = { Rw_cmd.idx; write = false }
let write idx = { Rw_cmd.idx; write = true }

let impls =
  [
    (Registry.Coarse, "coarse");
    (Registry.Fine, "fine");
    (Registry.Lockfree, "lockfree");
    (Registry.Striped 4, "striped-4");
    (Registry.Striped 16, "striped-16");
    (Registry.Indexed, "indexed");
  ]

(* The close-semantics tests additionally cover the sequential fifo
   baseline: shutdown behaviour must be uniform across every variant. *)
let impls_with_fifo = impls @ [ (Registry.Fifo, "fifo") ]

let impl_cos impl :
    (module Cos_intf.S with type cmd = Rw_cmd.t) =
  Registry.instantiate_cos impl (module RP) (module Rw_cmd)

(* --- registry --- *)

let test_registry_parsing () =
  let check s expect =
    Alcotest.(check bool)
      (Printf.sprintf "parse %S" s)
      true
      (Registry.of_string s = Option.map (fun i -> Registry.Cos i) expect)
  in
  check "coarse" (Some Registry.Coarse);
  check "coarse-grained" (Some Registry.Coarse);
  check "fine" (Some Registry.Fine);
  check "lock-free" (Some Registry.Lockfree);
  check "lockfree" (Some Registry.Lockfree);
  check "fifo" (Some Registry.Fifo);
  check "sequential" (Some Registry.Fifo);
  check "striped" (Some (Registry.Striped 16));
  check "striped-4" (Some (Registry.Striped 4));
  check "striped-0" None;
  check "striped-x" None;
  check "indexed" (Some Registry.Indexed);
  check "optimistic" None

let test_registry_roundtrip () =
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Registry.to_string b)
        true
        (Registry.of_string (Registry.to_string b) = Some b))
    (Registry.Cos Fifo :: Registry.Cos (Striped 8)
    :: List.filter (function Registry.Cos _ -> true | _ -> false) Registry.all)

let test_invalid_create_args () =
  let module S = (val impl_cos Registry.Coarse) in
  Alcotest.check_raises "zero max_size"
    (Invalid_argument "Coarse.create: max_size must be positive") (fun () ->
      ignore (S.create ~max_size:0 () : S.t))

(* --- deterministic single-thread behaviour --- *)

let test_insert_get_remove impl () =
  let module S = (val impl_cos impl) in
  let t = S.create () in
  for i = 0 to 9 do
    S.insert t (read i)
  done;
  Alcotest.(check int) "pending" 10 (S.pending t);
  let seen = Array.make 10 false in
  let handles =
    List.init 10 (fun _ ->
        match S.get t with
        | Some h ->
            let c = S.command h in
            Alcotest.(check bool) "not yet seen" false seen.(c.Rw_cmd.idx);
            seen.(c.Rw_cmd.idx) <- true;
            h
        | None -> Alcotest.fail "unexpected None from get")
  in
  List.iter (S.remove t) handles;
  Alcotest.(check int) "drained" 0 (S.pending t)

let test_writes_serialize impl () =
  let module S = (val impl_cos impl) in
  let t = S.create () in
  let n = 20 in
  for i = 0 to n - 1 do
    S.insert t (write i)
  done;
  (* All commands conflict, so only the oldest can ever be ready: gets must
     come back in exact insertion order, one at a time. *)
  for i = 0 to n - 1 do
    match S.get t with
    | Some h ->
        Alcotest.(check int) "in order" i (S.command h).Rw_cmd.idx;
        S.remove t h
    | None -> Alcotest.fail "unexpected None"
  done

let test_reads_independent impl () =
  let module S = (val impl_cos impl) in
  let t = S.create () in
  for i = 0 to 4 do
    S.insert t (read i)
  done;
  (* All five reads must be obtainable before any remove. *)
  let handles =
    List.init 5 (fun _ ->
        match S.get t with Some h -> h | None -> Alcotest.fail "None")
  in
  Alcotest.(check int) "five distinct" 5
    (List.sort_uniq compare (List.map (fun h -> (S.command h).Rw_cmd.idx) handles)
    |> List.length);
  List.iter (S.remove t) handles

let test_write_waits_for_reads impl () =
  let module S = (val impl_cos impl) in
  let t = S.create () in
  S.insert t (read 0);
  S.insert t (read 1);
  S.insert t (write 2);
  let h0 = Option.get (S.get t) in
  let h1 = Option.get (S.get t) in
  let got_write = Atomic.make false in
  let result = Atomic.make None in
  let th =
    Thread.create
      (fun () ->
        let h = S.get t in
        Atomic.set result (Option.map (fun h -> (S.command h).Rw_cmd.idx) h);
        Atomic.set got_write true;
        Option.iter (S.remove t) h)
      ()
  in
  Thread.delay 0.05;
  Alcotest.(check bool) "write blocked behind reads" false (Atomic.get got_write);
  S.remove t h0;
  Thread.delay 0.05;
  Alcotest.(check bool) "write still blocked behind one read" false
    (Atomic.get got_write);
  S.remove t h1;
  Thread.join th;
  Alcotest.(check (option int)) "write released" (Some 2) (Atomic.get result)

let test_bounded_insert_blocks impl () =
  let module S = (val impl_cos impl) in
  let t = S.create ~max_size:2 () in
  S.insert t (read 0);
  S.insert t (read 1);
  let third_in = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        S.insert t (read 2);
        Atomic.set third_in true)
      ()
  in
  Thread.delay 0.05;
  Alcotest.(check bool) "blocked while full" false (Atomic.get third_in);
  let h = Option.get (S.get t) in
  S.remove t h;
  Thread.join th;
  Alcotest.(check bool) "unblocked after remove" true (Atomic.get third_in);
  (* Drain the two remaining commands. *)
  let h = Option.get (S.get t) in
  S.remove t h;
  let h = Option.get (S.get t) in
  S.remove t h

let test_close_unblocks_getters impl () =
  let module S = (val impl_cos impl) in
  let t = S.create () in
  let results = Array.make 3 (Some 99) in
  let threads =
    List.init 3 (fun i ->
        Thread.create
          (fun () ->
            results.(i) <- Option.map (fun h -> (S.command h).Rw_cmd.idx) (S.get t))
          ())
  in
  Thread.delay 0.05;
  S.close t;
  List.iter Thread.join threads;
  Array.iter
    (fun r -> Alcotest.(check (option int)) "None after close" None r)
    results

let test_close_idempotent impl () =
  let module S = (val impl_cos impl) in
  let t = S.create () in
  S.close t;
  S.close t;
  Alcotest.(check (option int)) "get after close" None
    (Option.map (fun h -> (S.command h).Rw_cmd.idx) (S.get t))

(* Workers blocked in [get] on a non-empty structure when [close] arrives:
   every pending command must still execute, and afterwards every worker —
   including ones parked again in [get] — must observe [None].  Catches
   lost-wakeup bugs in the shutdown path (a single [signal] where a
   [broadcast] is needed). *)
let test_close_drains_blocked_getters impl () =
  let module S = (val impl_cos impl) in
  let t = S.create () in
  let executed = Atomic.make 0 in
  let nones = Atomic.make 0 in
  let workers = 3 in
  let worker () =
    let rec loop () =
      match S.get t with
      | Some h ->
          Atomic.incr executed;
          S.remove t h;
          loop ()
      | None -> Atomic.incr nones
    in
    loop ()
  in
  let threads = List.init workers (fun _ -> Thread.create worker ()) in
  (* Let the workers park on the empty, still-open structure first. *)
  Thread.delay 0.02;
  for i = 0 to 4 do
    S.insert t (write i)
  done;
  S.close t;
  List.iter Thread.join threads;
  Alcotest.(check int) "all pending commands executed" 5 (Atomic.get executed);
  Alcotest.(check int) "every worker observed None" workers (Atomic.get nones)

let test_dependency_chain impl () =
  let module S = (val impl_cos impl) in
  let t = S.create () in
  (* w0 <- r1, r2 <- w3: reads wait for w0; w3 waits for everyone. *)
  S.insert t (write 0);
  S.insert t (read 1);
  S.insert t (read 2);
  S.insert t (write 3);
  let h0 = Option.get (S.get t) in
  Alcotest.(check int) "w0 first" 0 (S.command h0).Rw_cmd.idx;
  S.remove t h0;
  let ha = Option.get (S.get t) in
  let hb = Option.get (S.get t) in
  let ids =
    List.sort compare [ (S.command ha).Rw_cmd.idx; (S.command hb).Rw_cmd.idx ]
  in
  Alcotest.(check (list int)) "both reads free" [ 1; 2 ] ids;
  S.remove t ha;
  S.remove t hb;
  let h3 = Option.get (S.get t) in
  Alcotest.(check int) "w3 last" 3 (S.command h3).Rw_cmd.idx;
  S.remove t h3

(* --- requeue: the fault-tolerance path for a worker that died between
   get and remove --- *)

let test_requeue_basic impl () =
  let module S = (val impl_cos impl) in
  let t = S.create () in
  S.insert t (write 0);
  S.insert t (write 1);
  let h0 = Option.get (S.get t) in
  Alcotest.(check int) "w0 reserved first" 0 (S.command h0).Rw_cmd.idx;
  S.requeue t h0;
  (* The command keeps its delivery position: it comes back before w1. *)
  (match S.get t with
  | Some h ->
      Alcotest.(check int) "w0 re-reserved" 0 (S.command h).Rw_cmd.idx;
      S.remove t h
  | None -> Alcotest.fail "requeued command not offered again");
  (match S.get t with
  | Some h ->
      Alcotest.(check int) "then w1" 1 (S.command h).Rw_cmd.idx;
      S.remove t h
  | None -> Alcotest.fail "w1 lost");
  Alcotest.(check int) "drained" 0 (S.pending t)

let test_requeue_invalid impl () =
  let module S = (val impl_cos impl) in
  let t = S.create () in
  S.insert t (write 0);
  let h = Option.get (S.get t) in
  S.remove t h;
  match S.requeue t h with
  | () -> Alcotest.fail "requeue after remove accepted"
  | exception Invalid_argument _ -> ()

let test_requeue_dependents impl () =
  (* A requeued command keeps its dependency edges: a write delivered after
     two reads stays blocked while one of the reads is requeued, and is
     released only once both reads are removed. *)
  let module S = (val impl_cos impl) in
  let t = S.create () in
  S.insert t (read 0);
  S.insert t (read 1);
  S.insert t (write 2);
  let ha = Option.get (S.get t) in
  let hb = Option.get (S.get t) in
  Alcotest.(check bool) "two reads in flight" true
    ((not (S.command ha).Rw_cmd.write) && not (S.command hb).Rw_cmd.write);
  S.requeue t hb;
  (match S.get t with
  | Some h ->
      Alcotest.(check bool) "requeued read, not the write" false
        (S.command h).Rw_cmd.write;
      S.remove t ha;
      S.remove t h
  | None -> Alcotest.fail "requeued read not offered again");
  match S.get t with
  | Some h ->
      Alcotest.(check int) "write released after both reads" 2
        (S.command h).Rw_cmd.idx;
      S.remove t h
  | None -> Alcotest.fail "write lost"

let test_requeue_then_close_drains impl () =
  (* close must drain a requeued command, not drop it. *)
  let module S = (val impl_cos impl) in
  let t = S.create () in
  S.insert t (write 0);
  let h = Option.get (S.get t) in
  S.requeue t h;
  S.close t;
  (match S.get t with
  | Some h' ->
      Alcotest.(check int) "requeued survives close" 0 (S.command h').Rw_cmd.idx;
      S.remove t h'
  | None -> Alcotest.fail "requeued command dropped by close");
  match S.get t with
  | None -> ()
  | Some _ -> Alcotest.fail "spurious command after drain"

(* --- worker crashes through the scheduler on the simulator: the
   supervisor requeues the reserved command and (with a respawn delay in
   the schedule) replaces the worker --- *)

let sim_scheduler_crash impl ~spec ~expect_crashed () =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let (module S : Cos_intf.S with type cmd = Rw_cmd.t) =
    Registry.instantiate_cos impl (module SP) (module Rw_cmd)
  in
  let module Sched = Psmr_sched.Scheduler.Make (SP) (S) in
  let plan =
    Psmr_fault.Plan.make
      ~now:(fun () -> Engine.now e)
      (Psmr_fault.Schedule.parse_exn spec)
  in
  let commands = 200 in
  let count = Array.make commands 0 in
  let finished = ref false in
  Psmr_fault.Plan.with_plan plan (fun () ->
      Engine.spawn e (fun () ->
          let execute (c : Rw_cmd.t) =
            SP.sleep 1e-4;
            count.(c.Rw_cmd.idx) <- count.(c.Rw_cmd.idx) + 1
          in
          let sched = Sched.start ~workers:4 ~execute () in
          let rng = Psmr_util.Rng.create ~seed:11L in
          for i = 0 to commands - 1 do
            Sched.submit sched
              { Rw_cmd.idx = i; write = Psmr_util.Rng.below_percent rng 20.0 }
          done;
          Sched.shutdown sched;
          Alcotest.(check int) "crashed workers" expect_crashed
            (Sched.crashed_workers sched);
          finished := true);
      Engine.run e);
  Alcotest.(check bool) "completed" true !finished;
  Array.iteri
    (fun i n ->
      if n <> 1 then Alcotest.failf "command %d executed %d times" i n)
    count;
  Alcotest.(check bool) "fault fired" true (Psmr_fault.Plan.injected plan >= 1)

let test_sim_scheduler_crash_respawn impl () =
  sim_scheduler_crash impl ~spec:"worker-crash=1@0.001+0.002" ~expect_crashed:1
    ()

let test_sim_scheduler_crash_stop impl () =
  (* No respawn: the pool shrinks to 3 workers but the run still drains,
     including the requeued command. *)
  sim_scheduler_crash impl ~spec:"worker-crash=1@0.001" ~expect_crashed:1 ()

(* --- concurrent stress through the scheduler runtime --- *)

(* Execute a random readers-writers workload on a real linked list through
   the full Algorithm-1 runtime and check it is equivalent to sequential
   execution in delivery order. *)
let stress_scheduler impl ~workers ~commands ~write_pct ~seed () =
  let module S = (val impl_cos impl) in
  let module Sched = Psmr_sched.Scheduler.Make (RP) (S) in
  let rng = Psmr_util.Rng.create ~seed in
  let universe = 200 in
  let cmds =
    Array.init commands (fun i ->
        let target = Psmr_util.Rng.int rng universe in
        let w = Psmr_util.Rng.below_percent rng write_pct in
        (i, (if w then Psmr_app.Linked_list.Add target
             else Psmr_app.Linked_list.Contains target)))
  in
  (* Sequential reference. *)
  let ref_list = Psmr_app.Linked_list.create ~initial_size:100 in
  let expected =
    Array.map (fun (_, c) -> Psmr_app.Linked_list.execute ref_list c) cmds
  in
  (* Parallel run.  The COS sees (index, write?) pairs; execution applies the
     real command and records the response under its index. *)
  let par_list = Psmr_app.Linked_list.create ~initial_size:100 in
  let responses = Array.make commands None in
  let exec_count = Array.make commands 0 in
  let writes_done = Atomic.make 0 in
  let write_rank = Array.make commands (-1) in
  let rank = ref 0 in
  Array.iter
    (fun (i, c) ->
      if Psmr_app.Linked_list.is_write c then begin
        write_rank.(i) <- !rank;
        incr rank
      end)
    cmds;
  let order_ok = Atomic.make true in
  let execute (c : Rw_cmd.t) =
    let i = c.Rw_cmd.idx in
    let _, real = cmds.(i) in
    if c.Rw_cmd.write then begin
      (* Writes are totally ordered by conflicts: each must see exactly its
         rank predecessors completed. *)
      if Atomic.get writes_done <> write_rank.(i) then Atomic.set order_ok false;
      responses.(i) <- Some (Psmr_app.Linked_list.execute par_list real);
      Atomic.incr writes_done
    end
    else responses.(i) <- Some (Psmr_app.Linked_list.execute par_list real);
    exec_count.(i) <- exec_count.(i) + 1
  in
  let sched = Sched.start ~workers ~execute () in
  Array.iter
    (fun (i, c) ->
      Sched.submit sched { Rw_cmd.idx = i; write = Psmr_app.Linked_list.is_write c })
    cmds;
  Sched.shutdown sched;
  Alcotest.(check int) "all executed" commands (Sched.executed sched);
  Array.iteri
    (fun i n -> if n <> 1 then Alcotest.failf "command %d executed %d times" i n)
    exec_count;
  Alcotest.(check bool) "writes in delivery order" true (Atomic.get order_ok);
  Array.iteri
    (fun i expect ->
      match responses.(i) with
      | Some got when got = expect -> ()
      | Some got ->
          Alcotest.failf "response %d: expected %b got %b" i expect got
      | None -> Alcotest.failf "missing response %d" i)
    expected;
  Alcotest.(check int)
    "same final size"
    (Psmr_app.Linked_list.size ref_list)
    (Psmr_app.Linked_list.size par_list)

(* --- the same data structures driven on the simulated platform --- *)

let test_sim_scheduler impl () =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let (module S : Cos_intf.S with type cmd = Rw_cmd.t) =
    Registry.instantiate_cos impl (module SP) (module Rw_cmd)
  in
  let module Sched = Psmr_sched.Scheduler.Make (SP) (S) in
  let executed_order = ref [] in
  let finished = ref false in
  Engine.spawn e (fun () ->
      let execute (c : Rw_cmd.t) =
        SP.sleep 1e-5;
        (* simulated execution cost *)
        executed_order := c.Rw_cmd.idx :: !executed_order
      in
      let sched = Sched.start ~workers:4 ~execute () in
      let rng = Psmr_util.Rng.create ~seed:11L in
      for i = 0 to 199 do
        Sched.submit sched
          { Rw_cmd.idx = i; write = Psmr_util.Rng.below_percent rng 20.0 }
      done;
      Sched.shutdown sched;
      finished := true);
  Engine.run e;
  Alcotest.(check bool) "completed" true !finished;
  Alcotest.(check int) "all executed" 200 (List.length !executed_order);
  Alcotest.(check bool) "virtual time advanced" true (Engine.now e > 0.0)

let test_sim_determinism impl () =
  let open Psmr_sim in
  let run () =
    let e = Engine.create () in
    let (module SP) = Sim_platform.make e Costs.default in
    let (module S : Cos_intf.S with type cmd = Rw_cmd.t) =
      Registry.instantiate_cos impl (module SP) (module Rw_cmd)
    in
    let module Sched = Psmr_sched.Scheduler.Make (SP) (S) in
    Engine.spawn e (fun () ->
        let sched = Sched.start ~workers:8 ~execute:(fun _ -> SP.sleep 2e-5) () in
        let rng = Psmr_util.Rng.create ~seed:5L in
        for i = 0 to 499 do
          Sched.submit sched
            { Rw_cmd.idx = i; write = Psmr_util.Rng.below_percent rng 10.0 }
        done;
        Sched.shutdown sched);
    Engine.run e;
    Engine.now e
  in
  Alcotest.(check (float 0.0)) "bit-identical virtual time" (run ()) (run ())

(* --- property-based testing: equivalence to sequential execution over the
       per-key conflict relation of the KV store --- *)

let kv_equivalence impl =
  let name = Printf.sprintf "%s: parallel = sequential (kv)" (Registry.to_string (Cos impl)) in
  QCheck.Test.make ~name ~count:30
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(int_range 1 150) (pair (int_range 0 7) (option (int_range 0 100)))))
    (fun (workers, ops) ->
      let module KC = struct
        type t = int * Psmr_app.Kv_store.command

        let conflict (_, a) (_, b) = Psmr_app.Kv_store.conflict a b
        let footprint (_, c) = Psmr_app.Kv_store.footprint c
        let pp ppf (i, c) = Format.fprintf ppf "%d:%a" i Psmr_app.Kv_store.pp_command c
      end in
      let (module S : Cos_intf.S with type cmd = KC.t) =
        Registry.instantiate_cos impl (module RP) (module KC)
      in
      let module Sched = Psmr_sched.Scheduler.Make (RP) (S) in
      let cmds =
        List.mapi
          (fun i (k, v) ->
            ( i,
              match v with
              | None -> Psmr_app.Kv_store.Get k
              | Some v -> Psmr_app.Kv_store.Put (k, v) ))
          ops
      in
      let n = List.length cmds in
      let ref_store = Psmr_app.Kv_store.create ~capacity:8 in
      let expected =
        List.map (fun (_, c) -> Psmr_app.Kv_store.execute ref_store c) cmds
        |> Array.of_list
      in
      let par_store = Psmr_app.Kv_store.create ~capacity:8 in
      let responses = Array.make n None in
      let execute ((i, c) : KC.t) =
        responses.(i) <- Some (Psmr_app.Kv_store.execute par_store c)
      in
      let sched = Sched.start ~workers ~execute () in
      List.iter (Sched.submit sched) cmds;
      Sched.shutdown sched;
      Array.for_all2
        (fun e r -> match r with Some r -> r = e | None -> false)
        expected responses)

(* --- direct check of the COS sequential specification (§3.3) ---

   Instrument get/remove with a global event log (ticketed by an atomic
   counter).  The spec says get may return c only when no conflicting c'
   inserted before c is still in the structure; hence for every conflicting
   pair (a inserted before b), remove(a) must precede get(b).  We log R(a)
   *before* invoking remove and G(b) *after* get returns, so a correct COS
   can never produce an inverted pair (no false positives). *)
let cos_spec_check impl ~workers ~commands ~write_pct ~seed () =
  let module S = (val impl_cos impl) in
  let rng = Psmr_util.Rng.create ~seed in
  let cmds =
    Array.init commands (fun i ->
        { Rw_cmd.idx = i; write = Psmr_util.Rng.below_percent rng write_pct })
  in
  let ticket = Atomic.make 0 in
  let got_at = Array.make commands max_int in
  let removed_at = Array.make commands max_int in
  let t = S.create () in
  let joined = Atomic.make 0 in
  let worker () =
    let rec loop () =
      match S.get t with
      | None -> Atomic.incr joined
      | Some h ->
          let c = S.command h in
          got_at.(c.Rw_cmd.idx) <- Atomic.fetch_and_add ticket 1;
          (* simulate a little execution time to widen races *)
          if c.Rw_cmd.idx land 7 = 0 then Thread.yield ();
          removed_at.(c.Rw_cmd.idx) <- Atomic.fetch_and_add ticket 1;
          S.remove t h;
          loop ()
    in
    loop ()
  in
  let threads = List.init workers (fun _ -> Thread.create worker ()) in
  Array.iter (S.insert t) cmds;
  (* Drain, then close. *)
  while S.pending t > 0 do
    Thread.yield ()
  done;
  S.close t;
  List.iter Thread.join threads;
  Alcotest.(check int) "workers joined" workers (Atomic.get joined);
  (* Every command got and removed exactly once (ticket assigned). *)
  Array.iteri
    (fun i g -> if g = max_int then Alcotest.failf "command %d never got" i)
    got_at;
  (* Conflict-order: for conflicting (a before b): remove(a) < get(b). *)
  for b = 0 to commands - 1 do
    for a = 0 to b - 1 do
      if Rw_cmd.conflict cmds.(a) cmds.(b) && removed_at.(a) >= got_at.(b) then
        Alcotest.failf
          "spec violation: %s%d (removed@%d) should precede %s%d (got@%d)"
          (if cmds.(a).Rw_cmd.write then "w" else "r")
          a removed_at.(a)
          (if cmds.(b).Rw_cmd.write then "w" else "r")
          b got_at.(b)
    done
  done

(* Property: on the simulator, with adversarially random execution durations
   (so completion order is scrambled arbitrarily), parallel execution through
   any COS still produces the responses of sequential delivery-order
   execution.  This explores interleavings that preemptive threads on one
   machine never would. *)
let sim_schedule_equivalence impl =
  let name =
    Printf.sprintf "%s: random-duration schedules = sequential (sim)"
      (Registry.to_string (Cos impl))
  in
  QCheck.Test.make ~name ~count:25
    QCheck.(
      triple (int_range 1 12)
        (list_of_size Gen.(int_range 1 120)
           (pair (int_range 0 5) (option (int_range 0 50))))
        (int_range 0 10_000))
    (fun (workers, ops, seed) ->
      let open Psmr_sim in
      let e = Engine.create () in
      let (module SP) = Sim_platform.make e Costs.default in
      let module KC = struct
        type t = int * Psmr_app.Kv_store.command

        let conflict (_, a) (_, b) = Psmr_app.Kv_store.conflict a b
        let footprint (_, c) = Psmr_app.Kv_store.footprint c
        let pp ppf (i, _) = Format.pp_print_int ppf i
      end in
      let (module S : Cos_intf.S with type cmd = KC.t) =
        Registry.instantiate_cos impl (module SP) (module KC)
      in
      let module Sched = Psmr_sched.Scheduler.Make (SP) (S) in
      let cmds =
        List.mapi
          (fun i (k, v) ->
            ( i,
              match v with
              | None -> Psmr_app.Kv_store.Get k
              | Some v -> Psmr_app.Kv_store.Put (k, v) ))
          ops
      in
      let n = List.length cmds in
      let ref_store = Psmr_app.Kv_store.create ~capacity:6 in
      let expected =
        List.map (fun (_, c) -> Psmr_app.Kv_store.execute ref_store c) cmds
        |> Array.of_list
      in
      let par_store = Psmr_app.Kv_store.create ~capacity:6 in
      let responses = Array.make n None in
      let rng = Psmr_util.Rng.create ~seed:(Int64.of_int seed) in
      let execute ((i, c) : KC.t) =
        (* Random virtual execution time scrambles completion order. *)
        SP.sleep (Psmr_util.Rng.float rng 2e-4);
        responses.(i) <- Some (Psmr_app.Kv_store.execute par_store c)
      in
      Engine.spawn e (fun () ->
          let sched = Sched.start ~workers ~execute () in
          List.iter (Sched.submit sched) cmds;
          Sched.shutdown sched);
      Engine.run e;
      Array.for_all2
        (fun exp r -> match r with Some r -> r = exp | None -> false)
        expected responses)

(* Regression for the Algorithm-7 promotion race (see the comment on
   [node] in lf_graph.ml and EXPERIMENTS.md): the shrunk counterexample — [Put; Gets; Put] on one
   key with 3 workers — swept across many random virtual schedules.  Before
   the [Ins]-state fix, the trailing Put could execute while earlier Gets
   were still running, yielding responses inconsistent with delivery
   order. *)
let test_algorithm7_race_regression impl () =
  let open Psmr_sim in
  let cmds =
    [
      Psmr_app.Kv_store.Get 1;
      Get 1;
      Put (0, 0);
      Get 0;
      Get 0;
      Get 0;
      Get 0;
      Get 0;
      Put (0, 1);
      Get 0;
      Get 0;
      Get 0;
    ]
    |> List.mapi (fun i c -> (i, c))
  in
  let n = List.length cmds in
  let ref_store = Psmr_app.Kv_store.create ~capacity:4 in
  let expected =
    List.map (fun (_, c) -> Psmr_app.Kv_store.execute ref_store c) cmds
    |> Array.of_list
  in
  for seed = 0 to 499 do
    let e = Engine.create () in
    let (module SP) = Sim_platform.make e Costs.default in
    let module KC = struct
      type t = int * Psmr_app.Kv_store.command

      let conflict (_, a) (_, b) = Psmr_app.Kv_store.conflict a b
      let footprint (_, c) = Psmr_app.Kv_store.footprint c
      let pp ppf (i, _) = Format.pp_print_int ppf i
    end in
    let (module S : Cos_intf.S with type cmd = KC.t) =
      Registry.instantiate_cos impl (module SP) (module KC)
    in
    let module Sched = Psmr_sched.Scheduler.Make (SP) (S) in
    let par_store = Psmr_app.Kv_store.create ~capacity:4 in
    let responses = Array.make n None in
    let rng = Psmr_util.Rng.create ~seed:(Int64.of_int (7725 + seed)) in
    let execute ((i, c) : KC.t) =
      SP.sleep (Psmr_util.Rng.float rng 1e-4);
      responses.(i) <- Some (Psmr_app.Kv_store.execute par_store c)
    in
    Engine.spawn e (fun () ->
        let sched = Sched.start ~workers:3 ~execute () in
        List.iter (Sched.submit sched) cmds;
        Sched.shutdown sched);
    Engine.run e;
    Array.iteri
      (fun i exp ->
        match responses.(i) with
        | Some got when got = exp -> ()
        | Some _ | None -> Alcotest.failf "seed %d: response %d wrong" seed i)
      expected
  done

(* --- batched insert --- *)

(* A batch larger than [max_size] must be chunked internally (a single
   space acquisition for the whole batch could never be satisfied) and
   still come out in delivery order. *)
let test_insert_batch_chunks impl () =
  let module S = (val impl_cos impl) in
  let t = S.create ~max_size:4 () in
  let n = 10 in
  let inserted = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        S.insert_batch t (Array.init n write);
        Atomic.set inserted true)
      ()
  in
  for i = 0 to n - 1 do
    let h = Option.get (S.get t) in
    Alcotest.(check int) "batch preserves delivery order" i
      (S.command h).Rw_cmd.idx;
    S.remove t h
  done;
  Thread.join th;
  Alcotest.(check bool) "batch insert completed" true (Atomic.get inserted);
  Alcotest.(check int) "drained" 0 (S.pending t)

(* Lock-free batched admission, on the simulator.  A batch takes the
   [space] tokens that are free in one acquisition, so with 3 free tokens a
   10-command batch inserts and exposes its first 3 commands, then parks;
   asking for more tokens than are free would insert nothing until a
   removal. *)
let test_lockfree_batch_takes_free_space () =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let module S = Lockfree.Make (SP) (Rw_cmd) in
  let t = S.create ~max_size:3 () in
  let returned = ref false in
  Engine.spawn e (fun () ->
      S.insert_batch t (Array.init 10 read);
      returned := true);
  Engine.run e;
  Alcotest.(check bool) "batch parked on a full structure" false !returned;
  let pending = ref 0 and got = ref [] in
  Engine.spawn e (fun () ->
      pending := S.pending t;
      for _ = 1 to 3 do
        match S.get t with
        | Some h -> got := (S.command h).Rw_cmd.idx :: !got
        | None -> ()
      done);
  Engine.run e;
  Alcotest.(check int) "first 3 inserted" 3 !pending;
  Alcotest.(check (list int)) "first 3 ready before any removal" [ 0; 1; 2 ]
    (List.rev !got)

(* The batch still releases [ready] per promoted command: a parked worker
   starts the batch's first command while the inserter is still walking
   the graph for later ones.  Releasing at the end of the batch instead
   stalls the workers for the whole insert. *)
let test_lockfree_batch_ready_per_command () =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let module S = Lockfree.Make (SP) (Rw_cmd) in
  let t = S.create () in
  let first = ref (-1) and started = ref infinity in
  let batch_done = ref neg_infinity in
  Engine.spawn e (fun () ->
      match S.get t with
      | Some h ->
          first := (S.command h).Rw_cmd.idx;
          started := SP.now ();
          S.remove t h
      | None -> ());
  Engine.spawn e (fun () ->
      S.insert_batch t (Array.init 64 read);
      batch_done := SP.now ());
  Engine.run e;
  Alcotest.(check int) "first command of the batch" 0 !first;
  Alcotest.(check bool) "started before the batch insert returned" true
    (!started < !batch_done)

(* The indexed batch policy, beside the lock-free one, on the simulator.
   With [max_size] 4 and one command left in the structure (3 free tokens),
   a 10-command batch parks on both.  Lock-free has inserted the 3
   commands the free tokens allowed; indexed asks for a whole chunk of 4
   and has inserted nothing.  One removal lets indexed insert the chunk.
   Returns whether the batch returned, the pending count while parked and
   the pending count after the removal. *)
let batch_on_partly_full impl =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let module S =
    (val Registry.instantiate_cos impl (module SP) (module Rw_cmd))
  in
  let t = S.create ~max_size:4 () in
  let returned = ref false in
  Engine.spawn e (fun () ->
      S.insert t (read 100);
      S.insert_batch t (Array.init 10 read);
      returned := true);
  Engine.run e;
  let parked = ref 0 and after = ref 0 in
  Engine.spawn e (fun () ->
      parked := S.pending t;
      match S.get t with
      | Some h -> S.remove t h
      | None -> ());
  Engine.run e;
  Engine.spawn e (fun () -> after := S.pending t);
  Engine.run e;
  (!returned, !parked, !after)

let test_indexed_batch_takes_whole_chunk () =
  let returned, parked, after = batch_on_partly_full Registry.Indexed in
  Alcotest.(check bool) "batch parked" false returned;
  Alcotest.(check int) "nothing of the batch inserted" 1 parked;
  Alcotest.(check int) "first chunk inserted after a removal" 4 after;
  let _, lockfree_parked, _ = batch_on_partly_full Registry.Lockfree in
  Alcotest.(check int) "lock-free took the 3 free tokens" 4 lockfree_parked

(* Indexed releases [ready] once per chunk: a worker parked before the
   batch starts the batch's first command only after the chunk's last
   insert.  Lock-free releases per command, so its worker starts while the
   batch is still being inserted.  Returns the first command and the
   pending count when it started. *)
let first_start_during_batch impl =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let module S =
    (val Registry.instantiate_cos impl (module SP) (module Rw_cmd))
  in
  let t = S.create () in
  let first = ref (-1) and pending = ref 0 in
  Engine.spawn e (fun () ->
      match S.get t with
      | Some h ->
          first := (S.command h).Rw_cmd.idx;
          pending := S.pending t;
          S.remove t h
      | None -> ());
  Engine.spawn e (fun () -> S.insert_batch t (Array.init 64 read));
  Engine.run e;
  (!first, !pending)

let test_indexed_batch_ready_per_chunk () =
  let first, pending = first_start_during_batch Registry.Indexed in
  Alcotest.(check int) "first command of the batch" 0 first;
  Alcotest.(check int) "started after the whole chunk was inserted" 64 pending;
  let _, lockfree_pending = first_start_during_batch Registry.Lockfree in
  Alcotest.(check bool) "lock-free started mid-batch" true
    (lockfree_pending < 64)

(* --- close with more blocked getters than the old token constant --- *)

(* Regression: [close] must wake every blocked getter even when more than
   1024 of them are parked.  The wake-token count used to be a hard-coded
   1024; it is now derived from [max_size] + [worker_bound]. *)
let test_close_many_blocked_getters impl () =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let (module S : Cos_intf.S with type cmd = Rw_cmd.t) =
    Registry.instantiate_cos impl (module SP) (module Rw_cmd)
  in
  let getters = 1500 in
  let t = S.create ~max_size:2000 ~worker_bound:getters () in
  let nones = ref 0 in
  for _ = 1 to getters do
    Engine.spawn e (fun () ->
        match S.get t with
        | None -> incr nones
        | Some _ -> Alcotest.fail "unexpected command from empty structure")
  done;
  Engine.spawn e (fun () -> S.close t);
  Engine.run e;
  Alcotest.(check int) "every blocked getter woke with None" getters !nones

(* --- cross-implementation equivalence against the coarse reference: every
       variant must induce exactly the behaviour of the coarse monitor's
       pairwise scan relation on random keyed workloads.  For indexed this
       checks the footprint-derived relation; for fine/striped/lockfree the
       lock-coupling, segment and CAS machinery. --- *)

module Keyed_cmd = struct
  type t = { idx : int; key : int; write : bool }

  let conflict a b = a.key = b.key && (a.write || b.write)
  let footprint c = [ (c.key, c.write) ]

  let pp ppf c =
    Format.fprintf ppf "%s%d@%d" (if c.write then "w" else "r") c.idx c.key
end

let drain_order impl cmds =
  let (module S : Cos_intf.S with type cmd = Keyed_cmd.t) =
    Registry.instantiate_cos impl (module RP) (module Keyed_cmd)
  in
  let n = Array.length cmds in
  let t = S.create ~max_size:(n + 1) () in
  Array.iter (S.insert t) cmds;
  let order = ref [] in
  for _ = 1 to n do
    match S.get t with
    | Some h ->
        order := (S.command h).Keyed_cmd.idx :: !order;
        S.remove t h
    | None -> Alcotest.fail "unexpected None while draining"
  done;
  S.close t;
  List.rev !order

(* One shared workload generator, one property per implementation. *)
let keyed_workload =
  QCheck.(list_of_size Gen.(int_range 0 60) (pair (int_range 0 5) bool))

let keyed_cmds ops =
  Array.of_list
    (List.mapi (fun idx (key, write) -> { Keyed_cmd.idx; key; write }) ops)

let coarse_equivalence (impl, label) =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s = coarse (same delivery, same single-threaded drain)"
         label)
    ~count:200 keyed_workload
    (fun ops ->
      let cmds = keyed_cmds ops in
      drain_order impl cmds = drain_order Registry.Coarse cmds)

let coarse_equivalence_impls =
  [
    (Registry.Indexed, "indexed");
    (Registry.Fine, "fine");
    (Registry.Striped 4, "striped-4");
    (Registry.Lockfree, "lockfree");
  ]

let per_impl name f =
  List.map
    (fun (impl, label) ->
      Alcotest.test_case (Printf.sprintf "%s [%s]" name label) `Quick (f impl))
    impls

let per_impl_all name f =
  List.map
    (fun (impl, label) ->
      Alcotest.test_case (Printf.sprintf "%s [%s]" name label) `Quick (f impl))
    impls_with_fifo

let () =
  let stress impl ~workers ~write_pct ~seed () =
    stress_scheduler impl ~workers ~commands:2000 ~write_pct ~seed ()
  in
  Alcotest.run "cos"
    [
      ( "registry",
        [
          Alcotest.test_case "parsing" `Quick test_registry_parsing;
          Alcotest.test_case "roundtrip" `Quick test_registry_roundtrip;
          Alcotest.test_case "invalid args" `Quick test_invalid_create_args;
        ] );
      ("insert-get-remove", per_impl "basic" test_insert_get_remove);
      ("conflict-order", per_impl "writes serialize" test_writes_serialize);
      ("independence", per_impl "reads independent" test_reads_independent);
      ("blocking", per_impl "write waits for reads" test_write_waits_for_reads);
      ("bounded", per_impl "insert blocks when full" test_bounded_insert_blocks);
      ( "shutdown",
        per_impl_all "close unblocks getters" test_close_unblocks_getters
        @ per_impl_all "close idempotent" test_close_idempotent
        @ per_impl_all "close drains blocked getters"
            test_close_drains_blocked_getters );
      ("dag", per_impl "dependency chain" test_dependency_chain);
      ( "requeue",
        per_impl_all "reserved command returns" test_requeue_basic
        @ per_impl_all "requeue after remove rejected" test_requeue_invalid
        @ per_impl "dependents kept" test_requeue_dependents
        @ per_impl_all "close drains requeued" test_requeue_then_close_drains );
      ( "worker-crash",
        per_impl "crash + respawn, exactly-once" test_sim_scheduler_crash_respawn
        @ per_impl "crash-stop, pool shrinks" test_sim_scheduler_crash_stop );
      ( "batch",
        per_impl_all "insert_batch chunks and keeps order"
          test_insert_batch_chunks
        @ [
            Alcotest.test_case "lockfree batch takes the free space" `Quick
              test_lockfree_batch_takes_free_space;
            Alcotest.test_case "lockfree batch releases ready per command"
              `Quick test_lockfree_batch_ready_per_command;
            Alcotest.test_case "indexed batch takes a whole chunk" `Quick
              test_indexed_batch_takes_whole_chunk;
            Alcotest.test_case "indexed batch releases ready per chunk"
              `Quick test_indexed_batch_ready_per_chunk;
          ] );
      ( "close-tokens",
        per_impl "close wakes >1024 blocked getters"
          test_close_many_blocked_getters );
      ( "coarse-equivalence",
        List.map
          (fun p -> QCheck_alcotest.to_alcotest (coarse_equivalence p))
          coarse_equivalence_impls );
      ( "stress",
        per_impl "4 workers, 20% writes" (fun impl ->
            stress impl ~workers:4 ~write_pct:20.0 ~seed:1L)
        @ per_impl "8 workers, 0% writes" (fun impl ->
              stress impl ~workers:8 ~write_pct:0.0 ~seed:2L)
        @ per_impl "2 workers, 80% writes" (fun impl ->
              stress impl ~workers:2 ~write_pct:80.0 ~seed:3L)
        @ per_impl "6 workers, 50% writes" (fun impl ->
              stress impl ~workers:6 ~write_pct:50.0 ~seed:4L) );
      ( "spec",
        per_impl "conflict order spec, 6 workers 30% writes" (fun impl ->
            cos_spec_check impl ~workers:6 ~commands:600 ~write_pct:30.0
              ~seed:21L)
        @ per_impl "conflict order spec, 8 workers 5% writes" (fun impl ->
              cos_spec_check impl ~workers:8 ~commands:600 ~write_pct:5.0
                ~seed:22L) );
      ("sim-platform", per_impl "scheduler on sim" test_sim_scheduler);
      ("sim-determinism", per_impl "deterministic" test_sim_determinism);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          (List.map (fun (impl, _) -> kv_equivalence impl) impls) );
      ( "sim-properties",
        List.map QCheck_alcotest.to_alcotest
          (List.map (fun (impl, _) -> sim_schedule_equivalence impl) impls) );
      ( "regression",
        per_impl "algorithm-7 promotion race" test_algorithm7_race_regression );
    ]
