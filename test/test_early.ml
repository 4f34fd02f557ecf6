(* Tests for the early (queue-dispatch) scheduler: the related-work baseline
   architecture where scheduling decisions happen at delivery time. *)

module RP = Psmr_platform.Real_platform

module Rw = struct
  type t = { idx : int; write : bool }

  let is_write c = c.write
  let pp ppf c = Format.fprintf ppf "%s%d" (if c.write then "w" else "r") c.idx
end

module E = Psmr_sched.Early.Make (RP) (Rw)

let test_reads_parallel_writes_exclusive () =
  let inside = Atomic.make 0 in
  let write_overlap = Atomic.make false in
  let peak_reads = Atomic.make 0 in
  let execute (c : Rw.t) =
    let now_inside = 1 + Atomic.fetch_and_add inside 1 in
    if c.write && now_inside > 1 then Atomic.set write_overlap true;
    if not c.write then begin
      let rec bump () =
        let cur = Atomic.get peak_reads in
        if now_inside > cur && not (Atomic.compare_and_set peak_reads cur now_inside)
        then bump ()
      in
      bump ()
    end;
    Thread.yield ();
    Atomic.decr inside
  in
  let sched = E.start ~workers:4 ~execute () in
  let rng = Psmr_util.Rng.create ~seed:31L in
  for i = 0 to 999 do
    E.submit sched { Rw.idx = i; write = Psmr_util.Rng.below_percent rng 10.0 }
  done;
  E.shutdown sched;
  Alcotest.(check int) "all executed" 1000 (E.executed sched);
  Alcotest.(check bool) "writes ran alone" false (Atomic.get write_overlap)

let test_equivalent_to_sequential () =
  (* Execute a real linked-list workload and compare responses with
     sequential delivery-order execution (same check as for the COS). *)
  let commands = 1500 in
  let rng = Psmr_util.Rng.create ~seed:32L in
  let cmds =
    Array.init commands (fun i ->
        let target = Psmr_util.Rng.int rng 200 in
        ( i,
          if Psmr_util.Rng.below_percent rng 25.0 then
            Psmr_app.Linked_list.Add target
          else Psmr_app.Linked_list.Contains target ))
  in
  let ref_list = Psmr_app.Linked_list.create ~initial_size:100 in
  let expected =
    Array.map (fun (_, c) -> Psmr_app.Linked_list.execute ref_list c) cmds
  in
  let par_list = Psmr_app.Linked_list.create ~initial_size:100 in
  let responses = Array.make commands None in
  let execute (c : Rw.t) =
    let _, real = cmds.(c.Rw.idx) in
    responses.(c.Rw.idx) <- Some (Psmr_app.Linked_list.execute par_list real)
  in
  let sched = E.start ~workers:6 ~execute () in
  Array.iter
    (fun (i, c) ->
      E.submit sched { Rw.idx = i; write = Psmr_app.Linked_list.is_write c })
    cmds;
  E.shutdown sched;
  Array.iteri
    (fun i exp ->
      match responses.(i) with
      | Some got when got = exp -> ()
      | Some got -> Alcotest.failf "response %d: expected %b got %b" i exp got
      | None -> Alcotest.failf "missing response %d" i)
    expected;
  Alcotest.(check int) "final size" (Psmr_app.Linked_list.size ref_list)
    (Psmr_app.Linked_list.size par_list)

let test_single_worker_sequential () =
  let order = ref [] in
  let execute (c : Rw.t) = order := c.Rw.idx :: !order in
  let sched = E.start ~workers:1 ~execute () in
  for i = 0 to 49 do
    E.submit sched { Rw.idx = i; write = i mod 3 = 0 }
  done;
  E.shutdown sched;
  Alcotest.(check (list int)) "delivery order" (List.init 50 Fun.id)
    (List.rev !order)

let test_all_writes_totally_ordered () =
  let last = Atomic.make (-1) in
  let ok = Atomic.make true in
  let execute (c : Rw.t) =
    if Atomic.exchange last c.Rw.idx >= c.Rw.idx then Atomic.set ok false
  in
  let sched = E.start ~workers:8 ~execute () in
  for i = 0 to 299 do
    E.submit sched { Rw.idx = i; write = true }
  done;
  E.shutdown sched;
  Alcotest.(check bool) "monotone execution order" true (Atomic.get ok)

let test_on_sim_deterministic () =
  let open Psmr_sim in
  let run () =
    let e = Engine.create () in
    let (module SP) = Sim_platform.make e Costs.default in
    let module SE = Psmr_sched.Early.Make (SP) (Rw) in
    let executed_at = ref 0.0 in
    Engine.spawn e (fun () ->
        let sched = SE.start ~workers:8 ~execute:(fun _ -> SP.sleep 1e-5) () in
        let rng = Psmr_util.Rng.create ~seed:33L in
        for i = 0 to 499 do
          SE.submit sched
            { Rw.idx = i; write = Psmr_util.Rng.below_percent rng 15.0 }
        done;
        SE.shutdown sched;
        executed_at := SP.now ());
    Engine.run e;
    !executed_at
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "ran" true (a > 0.0);
  Alcotest.(check (float 0.0)) "deterministic" a b

(* ====================================================================== *)
(* lib/early: the class-map dispatch subsystem (Psmr_early).              *)
(* ====================================================================== *)

module CM = Psmr_early.Class_map

(* Footprint-carrying commands for the dispatcher: conflict iff a shared
   key with at least one writer (the KEYED_COMMAND contract). *)
module Fc = struct
  type t = { idx : int; fp : (int * bool) list }

  let footprint c = c.fp

  let conflict a b =
    List.exists
      (fun (k, w) -> List.exists (fun (k', w') -> k = k' && (w || w')) b.fp)
      a.fp

  let pp ppf c = Format.fprintf ppf "#%d" c.idx
end

module D = Psmr_early.Dispatch.Make (RP) (Fc)

(* --- class map --- *)

let test_class_map_shape () =
  let cm = CM.create ~classes:2 ~workers:5 () in
  Alcotest.(check int) "classes" 2 (CM.classes cm);
  Alcotest.(check int) "workers" 5 (CM.workers cm);
  Alcotest.(check (array int)) "class 0 members" [| 1; 3; 5 |]
    (CM.members_of_class cm 0);
  Alcotest.(check (array int)) "class 1 members" [| 2; 4 |]
    (CM.members_of_class cm 1);
  Alcotest.(check int) "key 7 -> class 1" 1 (CM.class_of_key cm 7);
  Alcotest.(check int) "key 6 -> class 0" 0 (CM.class_of_key cm 6);
  (* More classes than workers are clamped: a class needs a worker. *)
  let clamped = CM.create ~classes:9 ~workers:3 () in
  Alcotest.(check int) "clamped classes" 3 (CM.classes clamped);
  (* Default: one class per worker. *)
  let default = CM.create ~workers:4 () in
  Alcotest.(check int) "default classes" 4 (CM.classes default)

let test_class_map_plans () =
  (* classes = workers: every single-key command is a Direct fast path. *)
  let cm = CM.create ~workers:4 () in
  (match CM.plan cm [ (0, true) ] with
  | CM.Direct { worker } -> Alcotest.(check int) "w(key 0)" 1 worker
  | p -> Alcotest.failf "expected Direct, got %a" CM.pp_plan p);
  (match CM.plan cm [ (5, true) ] with
  | CM.Direct { worker } -> Alcotest.(check int) "w(key 5)" 2 worker
  | p -> Alcotest.failf "expected Direct, got %a" CM.pp_plan p);
  (* Cross-class write: every involved class's members, smallest id
     designated. *)
  (match CM.plan cm [ (0, true); (2, true) ] with
  | CM.Rendezvous { members; designated } ->
      Alcotest.(check (array int)) "members" [| 1; 3 |] members;
      Alcotest.(check int) "designated" 1 designated
  | p -> Alcotest.failf "expected Rendezvous, got %a" CM.pp_plan p);
  (* Coarser map: a write covers the whole class. *)
  let cm2 = CM.create ~classes:2 ~workers:4 () in
  (match CM.plan cm2 [ (0, true) ] with
  | CM.Rendezvous { members; designated } ->
      Alcotest.(check (array int)) "class write members" [| 1; 3 |] members;
      Alcotest.(check int) "class write designated" 1 designated
  | p -> Alcotest.failf "expected Rendezvous, got %a" CM.pp_plan p);
  (* A read takes one round-robin representative of the class. *)
  let rep () =
    match CM.plan cm2 [ (0, false) ] with
    | CM.Direct { worker } -> worker
    | p -> Alcotest.failf "expected Direct read, got %a" CM.pp_plan p
  in
  let a = rep () and b = rep () and c = rep () in
  Alcotest.(check (list int)) "reads rotate the class" [ 3; 1; 3 ] [ a; b; c ];
  (* Empty footprint: global round-robin across all workers. *)
  let free () =
    match CM.plan cm2 [] with
    | CM.Direct { worker } -> worker
    | p -> Alcotest.failf "expected Direct free, got %a" CM.pp_plan p
  in
  let ws = List.init 4 (fun _ -> free ()) in
  Alcotest.(check (list int)) "free commands rotate all workers" [ 2; 3; 4; 1 ]
    ws

(* --- barrier --- *)

let test_barrier_rendezvous () =
  let module B = Psmr_early.Barrier.Make (RP) in
  let module L = Psmr_platform.Latch.Make (RP) in
  let b = B.create ~size:3 ~designated:2 in
  let executes = Atomic.make 0 and dones = Atomic.make 0 in
  let l = L.create 3 in
  for w = 1 to 3 do
    RP.spawn ~name:(Printf.sprintf "b%d" w) (fun () ->
        (match B.arrive b ~worker:w with
        | `Execute ->
            Atomic.incr executes;
            B.complete b
        | `Done -> Atomic.incr dones
        | `Pass -> Alcotest.fail "an exclusive barrier never passes");
        L.count_down l)
  done;
  L.wait l;
  Alcotest.(check int) "one executor" 1 (Atomic.get executes);
  Alcotest.(check int) "two passengers" 2 (Atomic.get dones);
  Alcotest.(check bool) "completed" true (B.completed b);
  Alcotest.check_raises "size < 2 rejected"
    (Invalid_argument "Barrier.create: size must be >= 2") (fun () ->
      ignore (B.create ~size:1 ~designated:1));
  (* Shared mode: every arrival returns at once — all three from this one
     thread, so a blocking arrival would hang the test — and the last
     arriver, whoever it is, executes. *)
  let s = B.create_shared ~size:3 in
  let arrivals = List.map (fun w -> B.arrive s ~worker:w) [ 3; 1; 2 ] in
  Alcotest.(check bool) "two passes, then the last arriver executes" true
    (arrivals = [ `Pass; `Pass; `Execute ]);
  Alcotest.(check bool) "no designated worker" true (B.designated s = None);
  Alcotest.(check bool) "not complete before complete" false (B.completed s);
  B.complete s;
  B.await s;
  Alcotest.(check bool) "completed" true (B.completed s);
  Alcotest.check_raises "shared size < 2 rejected"
    (Invalid_argument "Barrier.create: size must be >= 2") (fun () ->
      ignore (B.create_shared ~size:1))

(* --- conservative dispatch --- *)

let test_dispatch_rw_one_class () =
  (* classes = 1 makes the keyed dispatcher a readers-writers scheduler:
     writes rendezvous every worker, reads fan out round-robin. *)
  let inside = Atomic.make 0 in
  let write_overlap = Atomic.make false in
  let execute (c : Fc.t) =
    let now_inside = 1 + Atomic.fetch_and_add inside 1 in
    if List.exists snd c.fp && now_inside > 1 then
      Atomic.set write_overlap true;
    Thread.yield ();
    Atomic.decr inside
  in
  let d = D.start_full ~classes:1 ~workers:4 ~execute () in
  let rng = Psmr_util.Rng.create ~seed:34L in
  let writes = ref 0 in
  for i = 0 to 799 do
    let w = Psmr_util.Rng.below_percent rng 10.0 in
    if w then incr writes;
    D.submit d { Fc.idx = i; fp = [ (0, w) ] }
  done;
  D.shutdown d;
  Alcotest.(check int) "all executed" 800 (D.executed d);
  Alcotest.(check bool) "writes ran alone" false (Atomic.get write_overlap);
  Alcotest.(check int) "writes rendezvous" !writes (D.rendezvous_count d);
  Alcotest.(check int) "reads direct" (800 - !writes) (D.direct_count d);
  Alcotest.(check (list string)) "strict invariant" [] (D.invariant ~strict:true d)

let test_dispatch_cross_class_total_order () =
  (* Writes covering every class are totally ordered by the barriers. *)
  let last = Atomic.make (-1) in
  let ok = Atomic.make true in
  let execute (c : Fc.t) =
    if Atomic.exchange last c.Fc.idx >= c.Fc.idx then Atomic.set ok false
  in
  let d = D.start_full ~workers:4 ~execute () in
  let all = [ (0, true); (1, true); (2, true); (3, true) ] in
  for i = 0 to 199 do
    D.submit d { Fc.idx = i; fp = all }
  done;
  D.shutdown d;
  Alcotest.(check bool) "monotone execution order" true (Atomic.get ok);
  Alcotest.(check int) "all rendezvous" 200 (D.rendezvous_count d)

let test_dispatch_equivalent_to_sequential () =
  let commands = 1200 in
  let rng = Psmr_util.Rng.create ~seed:35L in
  let cmds =
    Array.init commands (fun i ->
        let target = Psmr_util.Rng.int rng 200 in
        ( i,
          if Psmr_util.Rng.below_percent rng 25.0 then
            Psmr_app.Linked_list.Add target
          else Psmr_app.Linked_list.Contains target ))
  in
  let ref_list = Psmr_app.Linked_list.create ~initial_size:100 in
  let expected =
    Array.map (fun (_, c) -> Psmr_app.Linked_list.execute ref_list c) cmds
  in
  let par_list = Psmr_app.Linked_list.create ~initial_size:100 in
  let responses = Array.make commands None in
  let execute (c : Fc.t) =
    let _, real = cmds.(c.Fc.idx) in
    responses.(c.Fc.idx) <- Some (Psmr_app.Linked_list.execute par_list real)
  in
  let d = D.start_full ~classes:1 ~workers:6 ~execute () in
  Array.iter
    (fun (i, c) ->
      D.submit d
        { Fc.idx = i; fp = [ (0, Psmr_app.Linked_list.is_write c) ] })
    cmds;
  D.shutdown d;
  Array.iteri
    (fun i exp ->
      match responses.(i) with
      | Some got when got = exp -> ()
      | Some got -> Alcotest.failf "response %d: expected %b got %b" i exp got
      | None -> Alcotest.failf "missing response %d" i)
    expected;
  Alcotest.(check int) "final size" (Psmr_app.Linked_list.size ref_list)
    (Psmr_app.Linked_list.size par_list)

(* --- optimistic dispatch --- *)

let test_optimistic_repair_equivalence () =
  (* Submit in a disordered (optimistic) stream, confirm in final order:
     responses must match sequential final-order execution, and the
     disorder must have triggered actual repairs. *)
  let n = 512 and keys = 8 and block = 16 in
  let rng = Psmr_util.Rng.create ~seed:36L in
  let cmds =
    Array.init n (fun i ->
        let k = Psmr_util.Rng.int rng keys in
        if Psmr_util.Rng.below_percent rng 40.0 then
          (i, Psmr_app.Kv_store.Put (k, i))
        else (i, Psmr_app.Kv_store.Get k))
  in
  let ref_store = Psmr_app.Kv_store.create ~capacity:keys in
  let expected =
    Array.map (fun (_, c) -> Psmr_app.Kv_store.execute ref_store c) cmds
  in
  let module KC = struct
    type t = int * Psmr_app.Kv_store.command

    let conflict (_, a) (_, b) = Psmr_app.Kv_store.conflict a b
    let footprint (_, c) = Psmr_app.Kv_store.footprint c

    let pp ppf (i, c) =
      Format.fprintf ppf "%d:%a" i Psmr_app.Kv_store.pp_command c
  end in
  let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
  let par_store = Psmr_app.Kv_store.create ~capacity:keys in
  let responses = Array.make n None in
  let execute ((i, c) : KC.t) =
    responses.(i) <- Some (Psmr_app.Kv_store.execute par_store c)
  in
  let d = ED.start_full ~workers:4 ~execute () in
  let srng = Psmr_util.Rng.create ~seed:37L in
  let specs = Array.make n None in
  let base = ref 0 in
  while !base < n do
    let len = min block (n - !base) in
    let idxs = Array.init len (fun j -> !base + j) in
    let opt = Psmr_early.Spec_stream.disorder ~swap_pct:35.0 ~rng:srng idxs in
    Array.iter
      (fun i -> specs.(i) <- Some (ED.submit_optimistic d cmds.(i)))
      opt;
    Array.iter (fun i -> ED.confirm d (Option.get specs.(i))) idxs;
    base := !base + len
  done;
  ED.shutdown d;
  Array.iteri
    (fun i exp ->
      match responses.(i) with
      | Some got when got = exp -> ()
      | Some _ -> Alcotest.failf "response %d diverged from final order" i
      | None -> Alcotest.failf "missing response %d" i)
    expected;
  Alcotest.(check bool) "repairs happened" true (ED.repair_count d > 0);
  Alcotest.(check bool) "revocations happened" true
    (ED.revoked_count d >= ED.repair_count d);
  Alcotest.(check int) "nothing dropped" 0 (ED.dropped d);
  Alcotest.(check int) "all submitted" n (ED.submitted d);
  Alcotest.(check (list string)) "strict invariant" [] (ED.invariant ~strict:true d)

let test_optimistic_double_confirm_rejected () =
  let d = D.start_full ~workers:2 ~execute:(fun _ -> ()) () in
  let s = D.submit_optimistic d { Fc.idx = 0; fp = [ (0, true) ] } in
  D.confirm d s;
  (match D.confirm d s with
  | () -> Alcotest.fail "double confirm accepted"
  | exception Invalid_argument _ -> ());
  D.shutdown d

let test_optimistic_sim_deterministic () =
  let open Psmr_sim in
  let run () =
    let e = Engine.create () in
    let (module SP) = Sim_platform.make e Costs.default in
    let module SD = Psmr_early.Dispatch.Make (SP) (Fc) in
    let executed_at = ref 0.0 in
    Engine.spawn e (fun () ->
        let d = SD.start_full ~workers:8 ~execute:(fun _ -> SP.sleep 1e-5) () in
        let rng = Psmr_util.Rng.create ~seed:38L in
        let srng = Psmr_util.Rng.create ~seed:39L in
        let block = 8 in
        for b = 0 to 39 do
          let cmds =
            Array.init block (fun j ->
                {
                  Fc.idx = (b * block) + j;
                  fp = [ (Psmr_util.Rng.int rng 16, Psmr_util.Rng.bool rng) ];
                })
          in
          let idxs = Array.init block Fun.id in
          let opt =
            Psmr_early.Spec_stream.disorder ~swap_pct:20.0 ~rng:srng idxs
          in
          let specs = Array.make block None in
          Array.iter
            (fun j -> specs.(j) <- Some (SD.submit_optimistic d cmds.(j)))
            opt;
          Array.iter (fun j -> SD.confirm d (Option.get specs.(j))) idxs
        done;
        SD.shutdown d;
        executed_at := SP.now ());
    Engine.run e;
    !executed_at
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "ran" true (a > 0.0);
  Alcotest.(check (float 0.0)) "deterministic" a b

(* Shared read rendezvous on the DES, one class per worker (key k ->
   worker k+1).  w1 is busy with a 30 us write when the scan R1 (keys
   0,1) arrives, so w2 passes R1 and carries on; w1 arrives last and
   executes it at 30-50 us.  Meanwhile w2 runs its Direct read D, then
   arrives last at R2 (keys 1,2) and executes it; its write W (key 1) is
   queued behind R1 and must wait for R1 to end.  R3 (keys 2,3) shares no
   member with R1 and runs alongside it, and so does R2, which shares w2.
   With the write gate off, W runs before R1 ends — the planted bug. *)
let shared_read_schedule ~write_gate =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let module SD = Psmr_early.Dispatch.Make (SP) (Fc) in
  let cmds =
    [|
      ([ (0, true) ], 30e-6) (* X *);
      ([ (0, false); (1, false) ], 20e-6) (* R1 *);
      ([ (1, false) ], 5e-6) (* D *);
      ([ (1, false); (2, false) ], 40e-6) (* R2 *);
      ([ (1, true) ], 5e-6) (* W *);
      ([ (2, false); (3, false) ], 40e-6) (* R3 *);
    |]
  in
  let span = Array.make (Array.length cmds) (nan, nan) in
  Engine.spawn e (fun () ->
      let d =
        SD.start_full ~write_gate ~workers:4
          ~execute:(fun (c : Fc.t) ->
            let t0 = SP.now () in
            SP.sleep (snd cmds.(c.idx));
            span.(c.idx) <- (t0, SP.now ()))
          ()
      in
      Array.iteri (fun idx (fp, _) -> SD.submit d { Fc.idx; fp }) cmds;
      SD.shutdown d);
  Engine.run e;
  span

let test_dispatch_shared_reads () =
  let span = shared_read_schedule ~write_gate:true in
  let start i = fst span.(i) and stop i = snd span.(i) in
  let x, r1, d, r2, w, r3 = (0, 1, 2, 3, 4, 5) in
  Alcotest.(check bool) "R1 waits for its busy member" true
    (start r1 >= stop x);
  Alcotest.(check bool) "a member runs its next Direct read before R1 ends"
    true
    (start d < stop r1);
  Alcotest.(check bool) "a write behind passed R1 starts after R1 ends" true
    (start w >= stop r1 && start w >= stop r2);
  let overlap a b = start a < stop b && start b < stop a in
  Alcotest.(check bool) "disjoint shared reads overlap" true (overlap r1 r3);
  Alcotest.(check bool) "shared reads with a common member overlap" true
    (overlap r1 r2);
  let ungated = shared_read_schedule ~write_gate:false in
  Alcotest.(check bool) "without the gate the write overtakes R1" true
    (fst ungated.(w) < snd ungated.(r1))

(* --- qcheck: early execution histories = coarse COS = sequential --- *)

(* Each property runs the same random workload through the early
   dispatcher, through the coarse-COS scheduler and through a sequential
   reference, and requires identical response histories. *)

(* Kv operations over an 8-slot store: [(k, None)] reads slot [k],
   [(k, Some v)] writes [v >= 0] to it, and a negative [v] scans [-v]
   slots from [k] (clipped to the store).  Multi-slot scans are read-only
   cross-class commands — shared rendezvous — with writes drawn behind
   them. *)
let kv_op = QCheck.(pair (int_range 0 7) (option (int_range (-40) 100)))

let kv_command (k, v) =
  match v with
  | None -> Psmr_app.Kv_store.Get k
  | Some v when v < 0 -> Psmr_app.Kv_store.Scan (k, min (-v) (8 - k))
  | Some v -> Psmr_app.Kv_store.Put (k, v)

let kv_equivalence =
  QCheck.Test.make ~name:"early = coarse = sequential (kv)" ~count:25
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 1 120) kv_op))
    (fun (workers, ops) ->
      let module KC = struct
        type t = int * Psmr_app.Kv_store.command

        let conflict (_, a) (_, b) = Psmr_app.Kv_store.conflict a b
        let footprint (_, c) = Psmr_app.Kv_store.footprint c

        let pp ppf (i, c) =
          Format.fprintf ppf "%d:%a" i Psmr_app.Kv_store.pp_command c
      end in
      let cmds = List.mapi (fun i op -> (i, kv_command op)) ops in
      let n = List.length cmds in
      let ref_store = Psmr_app.Kv_store.create ~capacity:8 in
      let expected =
        List.map (fun (_, c) -> Psmr_app.Kv_store.execute ref_store c) cmds
        |> Array.of_list
      in
      let run_early () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let store = Psmr_app.Kv_store.create ~capacity:8 in
        let responses = Array.make n None in
        let d =
          ED.start ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Kv_store.execute store c))
            ()
        in
        List.iter (ED.submit d) cmds;
        ED.shutdown d;
        responses
      in
      let run_coarse () =
        let (module S : Psmr_cos.Cos_intf.S with type cmd = KC.t) =
          Psmr_cos.Registry.instantiate_keyed Psmr_cos.Registry.Coarse
            (module RP)
            (module KC)
        in
        let module Sched = Psmr_sched.Scheduler.Make (RP) (S) in
        let store = Psmr_app.Kv_store.create ~capacity:8 in
        let responses = Array.make n None in
        let sched =
          Sched.start ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Kv_store.execute store c))
            ()
        in
        List.iter (Sched.submit sched) cmds;
        Sched.shutdown sched;
        responses
      in
      let early = run_early () and coarse = run_coarse () in
      Array.for_all2
        (fun e r -> match r with Some r -> r = e | None -> false)
        expected early
      && Array.for_all2 (fun a b -> a = b) early coarse)

let bank_equivalence =
  QCheck.Test.make ~name:"early = coarse = sequential (bank)" ~count:25
    QCheck.(
      pair (int_range 1 6)
        (list_of_size
           Gen.(int_range 1 120)
           (triple (int_range 0 2) (pair (int_range 0 5) (int_range 0 5))
              (int_range 0 30))))
    (fun (workers, ops) ->
      let module KC = struct
        type t = int * Psmr_app.Bank.command

        let conflict (_, a) (_, b) = Psmr_app.Bank.conflict a b
        let footprint (_, c) = Psmr_app.Bank.footprint c

        let pp ppf (i, c) =
          Format.fprintf ppf "%d:%a" i Psmr_app.Bank.pp_command c
      end in
      let cmds =
        List.mapi
          (fun i (kind, (a, b), amount) ->
            ( i,
              match kind with
              | 0 -> Psmr_app.Bank.Balance a
              | 1 -> Psmr_app.Bank.Deposit (a, amount)
              | _ -> Psmr_app.Bank.Transfer { src = a; dst = b; amount } ))
          ops
      in
      let n = List.length cmds in
      let fresh () = Psmr_app.Bank.create ~accounts:6 ~initial_balance:50 in
      let ref_bank = fresh () in
      let expected =
        List.map (fun (_, c) -> Psmr_app.Bank.execute ref_bank c) cmds
        |> Array.of_list
      in
      let run_early () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let bank = fresh () in
        let responses = Array.make n None in
        let d =
          ED.start ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Bank.execute bank c))
            ()
        in
        List.iter (ED.submit d) cmds;
        ED.shutdown d;
        (responses, Psmr_app.Bank.total bank)
      in
      let run_coarse () =
        let (module S : Psmr_cos.Cos_intf.S with type cmd = KC.t) =
          Psmr_cos.Registry.instantiate_keyed Psmr_cos.Registry.Coarse
            (module RP)
            (module KC)
        in
        let module Sched = Psmr_sched.Scheduler.Make (RP) (S) in
        let bank = fresh () in
        let responses = Array.make n None in
        let sched =
          Sched.start ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Bank.execute bank c))
            ()
        in
        List.iter (Sched.submit sched) cmds;
        Sched.shutdown sched;
        responses
      in
      let early, total = run_early () in
      let coarse = run_coarse () in
      (* Deposits add money, so compare against the reference bank rather
         than the initial total. *)
      total = Psmr_app.Bank.total ref_bank
      && Array.for_all2
           (fun e r -> match r with Some r -> r = e | None -> false)
           expected early
      && Array.for_all2 (fun a b -> a = b) early coarse)

let list_equivalence =
  QCheck.Test.make ~name:"early = coarse = sequential (linked list)" ~count:20
    QCheck.(
      pair (int_range 1 6)
        (list_of_size
           Gen.(int_range 1 120)
           (pair (int_range 0 60) bool)))
    (fun (workers, ops) ->
      let module KC = struct
        type t = int * Psmr_app.Linked_list.command

        let conflict (_, a) (_, b) = Psmr_app.Linked_list.conflict a b
        let footprint (_, c) = Psmr_app.Linked_list.footprint c

        let pp ppf (i, c) =
          Format.fprintf ppf "%d:%a" i Psmr_app.Linked_list.pp_command c
      end in
      let cmds =
        List.mapi
          (fun i (target, write) ->
            ( i,
              if write then Psmr_app.Linked_list.Add target
              else Psmr_app.Linked_list.Contains target ))
          ops
      in
      let n = List.length cmds in
      let ref_list = Psmr_app.Linked_list.create ~initial_size:30 in
      let expected =
        List.map (fun (_, c) -> Psmr_app.Linked_list.execute ref_list c) cmds
        |> Array.of_list
      in
      let run_early () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let l = Psmr_app.Linked_list.create ~initial_size:30 in
        let responses = Array.make n None in
        let d =
          (* classes:1 so the single-variable service still spreads reads. *)
          ED.start_full ~classes:1 ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Linked_list.execute l c))
            ()
        in
        List.iter (ED.submit d) cmds;
        ED.shutdown d;
        responses
      in
      let run_coarse () =
        let (module S : Psmr_cos.Cos_intf.S with type cmd = KC.t) =
          Psmr_cos.Registry.instantiate_keyed Psmr_cos.Registry.Coarse
            (module RP)
            (module KC)
        in
        let module Sched = Psmr_sched.Scheduler.Make (RP) (S) in
        let l = Psmr_app.Linked_list.create ~initial_size:30 in
        let responses = Array.make n None in
        let sched =
          Sched.start ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Linked_list.execute l c))
            ()
        in
        List.iter (Sched.submit sched) cmds;
        Sched.shutdown sched;
        responses
      in
      let early = run_early () and coarse = run_coarse () in
      Array.for_all2
        (fun e r -> match r with Some r -> r = e | None -> false)
        expected early
      && Array.for_all2 (fun a b -> a = b) early coarse)

(* --- qcheck: optimistic execution with rollback = conservative early --- *)

(* Feed indices [0..n) through an optimistic dispatcher: the optimistic
   stream is a seeded disorder of each block, with a full-shuffle
   adversarial burst every fourth block when [burst] is set; confirmations
   always arrive in final (index) order. *)
let opt_feed ~n ~seed ~burst ~submit ~confirm =
  let srng = Psmr_util.Rng.create ~seed in
  let block = 16 in
  let specs = Array.make n None in
  let base = ref 0 and bi = ref 0 in
  while !base < n do
    let len = min block (n - !base) in
    let idxs = Array.init len (fun j -> !base + j) in
    let swap_pct = if burst && !bi mod 4 = 3 then 100.0 else 30.0 in
    let opt = Psmr_early.Spec_stream.disorder ~swap_pct ~rng:srng idxs in
    Array.iter (fun i -> specs.(i) <- Some (submit i)) opt;
    Array.iter (fun i -> confirm (Option.get specs.(i))) idxs;
    incr bi;
    base := !base + len
  done

let kv_opt_equivalence =
  QCheck.Test.make
    ~name:"early-opt rollback = early = sequential (kv)" ~count:20
    QCheck.(
      triple (int_range 1 6) bool (list_of_size Gen.(int_range 1 120) kv_op))
    (fun (workers, burst, ops) ->
      let module KC = struct
        type t = int * Psmr_app.Kv_store.command

        let conflict (_, a) (_, b) = Psmr_app.Kv_store.conflict a b
        let footprint (_, c) = Psmr_app.Kv_store.footprint c

        let pp ppf (i, c) =
          Format.fprintf ppf "%d:%a" i Psmr_app.Kv_store.pp_command c
      end in
      let cmds = Array.of_list (List.mapi (fun i op -> (i, kv_command op)) ops) in
      let n = Array.length cmds in
      let ref_store = Psmr_app.Kv_store.create ~capacity:8 in
      let expected =
        Array.map (fun (_, c) -> Psmr_app.Kv_store.execute ref_store c) cmds
      in
      let dump s = List.init 8 (fun k -> Psmr_app.Kv_store.execute s (Get k)) in
      let run_opt () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let store = Psmr_app.Kv_store.create ~capacity:8 in
        let responses = Array.make n None in
        let speculate ((i, c) : KC.t) =
          let resp, u = Psmr_app.Kv_store.execute_undoable store c in
          responses.(i) <- Some resp;
          fun () -> Psmr_app.Kv_store.undo store u
        in
        let d =
          ED.start_full ~workers ~speculate
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Kv_store.execute store c))
            ()
        in
        opt_feed ~n
          ~seed:(Int64.of_int ((workers * 1009) + n))
          ~burst
          ~submit:(fun i -> ED.submit_optimistic d cmds.(i))
          ~confirm:(fun sp -> ED.confirm d sp);
        ED.shutdown d;
        (responses, dump store)
      in
      let run_early () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let store = Psmr_app.Kv_store.create ~capacity:8 in
        let responses = Array.make n None in
        let d =
          ED.start ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Kv_store.execute store c))
            ()
        in
        Array.iter (ED.submit d) cmds;
        ED.shutdown d;
        responses
      in
      let opt, opt_state = run_opt () in
      let early = run_early () in
      opt_state = dump ref_store
      && Array.for_all2
           (fun e r -> match r with Some r -> r = e | None -> false)
           expected opt
      && Array.for_all2 (fun a b -> a = b) opt early)

let bank_opt_equivalence =
  QCheck.Test.make
    ~name:"early-opt rollback = early = sequential (bank)" ~count:20
    QCheck.(
      triple (int_range 1 6) bool
        (list_of_size
           Gen.(int_range 1 120)
           (triple (int_range 0 2) (pair (int_range 0 5) (int_range 0 5))
              (int_range 0 30))))
    (fun (workers, burst, ops) ->
      let module KC = struct
        type t = int * Psmr_app.Bank.command

        let conflict (_, a) (_, b) = Psmr_app.Bank.conflict a b
        let footprint (_, c) = Psmr_app.Bank.footprint c

        let pp ppf (i, c) =
          Format.fprintf ppf "%d:%a" i Psmr_app.Bank.pp_command c
      end in
      let cmds =
        Array.of_list
          (List.mapi
             (fun i (kind, (a, b), amount) ->
               ( i,
                 match kind with
                 | 0 -> Psmr_app.Bank.Balance a
                 | 1 -> Psmr_app.Bank.Deposit (a, amount)
                 | _ -> Psmr_app.Bank.Transfer { src = a; dst = b; amount } ))
             ops)
      in
      let n = Array.length cmds in
      let fresh () = Psmr_app.Bank.create ~accounts:6 ~initial_balance:50 in
      let ref_bank = fresh () in
      let expected =
        Array.map (fun (_, c) -> Psmr_app.Bank.execute ref_bank c) cmds
      in
      let run_opt () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let bank = fresh () in
        let responses = Array.make n None in
        let speculate ((i, c) : KC.t) =
          let resp, u = Psmr_app.Bank.execute_undoable bank c in
          responses.(i) <- Some resp;
          fun () -> Psmr_app.Bank.undo bank u
        in
        let d =
          ED.start_full ~workers ~speculate
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Bank.execute bank c))
            ()
        in
        opt_feed ~n
          ~seed:(Int64.of_int ((workers * 1013) + n))
          ~burst
          ~submit:(fun i -> ED.submit_optimistic d cmds.(i))
          ~confirm:(fun sp -> ED.confirm d sp);
        ED.shutdown d;
        (responses, Psmr_app.Bank.total bank)
      in
      let run_early () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let bank = fresh () in
        let responses = Array.make n None in
        let d =
          ED.start ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Bank.execute bank c))
            ()
        in
        Array.iter (ED.submit d) cmds;
        ED.shutdown d;
        responses
      in
      let opt, total = run_opt () in
      let early = run_early () in
      total = Psmr_app.Bank.total ref_bank
      && Array.for_all2
           (fun e r -> match r with Some r -> r = e | None -> false)
           expected opt
      && Array.for_all2 (fun a b -> a = b) opt early)

let list_opt_equivalence =
  QCheck.Test.make
    ~name:"early-opt rollback = early = sequential (linked list)" ~count:15
    QCheck.(
      triple (int_range 1 6) bool
        (list_of_size Gen.(int_range 1 120) (pair (int_range 0 60) bool)))
    (fun (workers, burst, ops) ->
      let module KC = struct
        type t = int * Psmr_app.Linked_list.command

        let conflict (_, a) (_, b) = Psmr_app.Linked_list.conflict a b
        let footprint (_, c) = Psmr_app.Linked_list.footprint c

        let pp ppf (i, c) =
          Format.fprintf ppf "%d:%a" i Psmr_app.Linked_list.pp_command c
      end in
      let cmds =
        Array.of_list
          (List.mapi
             (fun i (target, write) ->
               ( i,
                 if write then Psmr_app.Linked_list.Add target
                 else Psmr_app.Linked_list.Contains target ))
             ops)
      in
      let n = Array.length cmds in
      let ref_list = Psmr_app.Linked_list.create ~initial_size:30 in
      let expected =
        Array.map (fun (_, c) -> Psmr_app.Linked_list.execute ref_list c) cmds
      in
      let run_opt () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let l = Psmr_app.Linked_list.create ~initial_size:30 in
        let responses = Array.make n None in
        let speculate ((i, c) : KC.t) =
          let resp, u = Psmr_app.Linked_list.execute_undoable l c in
          responses.(i) <- Some resp;
          fun () -> Psmr_app.Linked_list.undo l u
        in
        let d =
          (* classes:1 so the single-variable service still spreads reads. *)
          ED.start_full ~classes:1 ~workers ~speculate
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Linked_list.execute l c))
            ()
        in
        opt_feed ~n
          ~seed:(Int64.of_int ((workers * 1019) + n))
          ~burst
          ~submit:(fun i -> ED.submit_optimistic d cmds.(i))
          ~confirm:(fun sp -> ED.confirm d sp);
        ED.shutdown d;
        (responses, Psmr_app.Linked_list.size l)
      in
      let opt, size = run_opt () in
      size = Psmr_app.Linked_list.size ref_list
      && Array.for_all2
           (fun e r -> match r with Some r -> r = e | None -> false)
           expected opt)

(* --- the 0%-mis fast path, pinned --- *)

let test_optimistic_zero_mis_fast_path () =
  (* With the optimistic stream already in final order, confirmation must
     be pure fast path: the observability ledger pins every repair-family
     counter at zero, and a per-command minor-heap budget guards against
     repair-scan or log-walk work sneaking back onto the hot path (the
     regression this PR fixed was exactly such serialized repair-side
     work). *)
  let reg = Psmr_obs.Metrics.make () in
  Psmr_obs.Metrics.enable reg;
  Fun.protect ~finally:Psmr_obs.Metrics.disable @@ fun () ->
  let spec_runs = Atomic.make 0 in
  let speculate (_ : Fc.t) =
    Atomic.incr spec_runs;
    Fun.id
  in
  let d = D.start_full ~workers:4 ~speculate ~execute:(fun _ -> ()) () in
  let cmd i = { Fc.idx = i; fp = [ (i mod 8, i mod 4 = 0) ] } in
  (* Pipeline a block ahead, confirming in the same order as submission —
     a 0%-mis stream with real overlap between speculation and
     confirmation. *)
  let block = 32 in
  let feed base count =
    let specs = Array.make block None in
    let at = ref base in
    while !at < base + count do
      let len = min block (base + count - !at) in
      for j = 0 to len - 1 do
        specs.(j) <- Some (D.submit_optimistic d (cmd (!at + j)))
      done;
      for j = 0 to len - 1 do
        D.confirm d (Option.get specs.(j))
      done;
      at := !at + len
    done
  in
  feed 0 256 (* warmup: first dispatches grow internal structures *);
  let n = 4096 in
  let before = Gc.minor_words () in
  feed 256 n;
  let words = Gc.minor_words () -. before in
  D.shutdown d;
  List.iter
    (fun (what, name) ->
      Alcotest.(check (float 0.0)) what 0.0 (Psmr_obs.Metrics.value reg name))
    [
      ("no repairs", "early.spec_repairs");
      ("no revocations", "early.spec_revoked");
      ("no rollbacks", "early.spec_rollbacks");
      ("nothing undone", "early.spec_undone");
      ("no redos", "early.spec_redos");
      ("no requeues", "cos.requeues");
    ];
  Alcotest.(check bool) "speculation actually ran" true
    (Atomic.get spec_runs > 0);
  Alcotest.(check int) "every command executed" (256 + n) (D.executed d);
  Alcotest.(check int) "dispatch agrees: no rollbacks" 0 (D.rollback_count d);
  Alcotest.(check int) "dispatch agrees: no redos" 0 (D.redo_count d);
  Alcotest.(check bool) "single execution per command" true
    (D.redo_depth_max d <= 1);
  let per_cmd = words /. float_of_int n in
  if per_cmd > 512.0 then
    Alcotest.failf "fast path allocates %.0f minor words/command (budget 512)"
      per_cmd

let test_submit_batch_alloc_budget () =
  (* Batched confirm on the conservative feed: with no speculation in
     flight, [submit_batch] must take the single-pass fast path — one
     chunked window acquire and one lock round per worker queue for the
     whole batch.  Measured ~110 minor words/command on this workload;
     the 256-word budget leaves slack for GC jitter and the workers'
     concurrent pops (they share the minor heap) while still catching a
     reintroduced per-command acquire or a per-command queue-append
     (the latter is O(batch²) words and blows the budget immediately). *)
  let d = D.start ~max_size:4096 ~workers:4 ~execute:(fun _ -> ()) () in
  let cmd i = { Fc.idx = i; fp = [ (i mod 4, true) ] } in
  let batch base len = Array.init len (fun j -> cmd (base + j)) in
  let bsz = 256 in
  D.submit_batch d (batch 0 bsz) (* warmup: grows internal structures *);
  Thread.delay 0.05;
  let rounds = 8 in
  let before = Gc.minor_words () in
  for r = 0 to rounds - 1 do
    D.submit_batch d (batch ((r + 1) * bsz) bsz)
  done;
  let words = Gc.minor_words () -. before in
  let n = rounds * bsz in
  D.shutdown d;
  Alcotest.(check int) "every command executed" (bsz + n) (D.executed d);
  let per_cmd = words /. float_of_int n in
  if per_cmd > 256.0 then
    Alcotest.failf
      "batched submit allocates %.0f minor words/command (budget 256)" per_cmd

let test_submit_batch_longer_than_window () =
  (* A batch longer than the in-flight window (abcast cuts up to 256
     commands against the default 150-slot window) must not wait for slots
     that only its own not-yet-enqueued commands could free. *)
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let module SD = Psmr_early.Dispatch.Make (SP) (Fc) in
  let executed = ref 0 in
  Engine.spawn e (fun () ->
      let d =
        SD.start ~max_size:150 ~workers:4 ~execute:(fun _ -> SP.sleep 1e-6) ()
      in
      SD.submit_batch d
        (Array.init 256 (fun i -> { Fc.idx = i; fp = [ (i mod 8, true) ] }));
      SD.shutdown d;
      executed := SD.executed d);
  Engine.run ~until:1.0 e;
  Alcotest.(check int) "every command executed" 256 !executed

(* --- worker crash inside the repair window (DES) --- *)

let test_keyed_bench_opt_crash_mid_repair () =
  (* Crash a worker while the optimistic run is actively repairing
     (mis_pct high enough that rollbacks are continuously in flight): the
     crashed worker's reservation must requeue and the run keep
     completing commands after the respawn. *)
  let faults = Psmr_fault.Schedule.parse_exn "worker-crash=2@0.004+0.002" in
  let spec =
    { Psmr_workload.Workload.Keyed.low_conflict with keys = 16; mis_pct = 30.0 }
  in
  let r =
    Psmr_harness.Standalone.run
      ~backend:(Psmr_early.Registry.Early Psmr_early.Early_intf.optimistic)
      ~workers:4 ~workload:(Keyed spec) ~faults ~duration:0.01 ~warmup:0.002 ()
  in
  Alcotest.(check int) "one crash" 1 r.crashed_workers;
  Alcotest.(check bool) "fault injected" true (r.faults_injected >= 1);
  Alcotest.(check bool) "repairs happened" true (r.repairs > 0);
  Alcotest.(check bool) "rollbacks happened" true (r.rollbacks > 0);
  Alcotest.(check bool) "kept completing after respawn" true (r.executed > 0)

(* --- registry --- *)

let test_backend_registry_roundtrip () =
  let module R = Psmr_early.Registry in
  List.iter
    (fun b ->
      let s = R.to_string b in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %S" s)
        true
        (R.of_string s = Some b))
    R.all;
  let check s expect =
    Alcotest.(check bool)
      (Printf.sprintf "parse %S" s)
      true
      (R.of_string s = expect)
  in
  check "early" (Some (R.Early Psmr_early.Early_intf.conservative));
  check "early-opt" (Some (R.Early Psmr_early.Early_intf.optimistic));
  check "early_opt" (Some (R.Early Psmr_early.Early_intf.optimistic));
  check "early-4"
    (Some (R.Early { Psmr_early.Early_intf.classes = Some 4; optimistic = false }));
  check "early-opt-8"
    (Some (R.Early { Psmr_early.Early_intf.classes = Some 8; optimistic = true }));
  check "early-0" None;
  check "early-x" None;
  check "coarse" (Some (R.Cos Psmr_cos.Registry.Coarse));
  check "indexed" (Some (R.Cos Psmr_cos.Registry.Indexed));
  check "bogus" None;
  Alcotest.(check bool) "early-opt is optimistic" true
    (R.is_optimistic (R.Early Psmr_early.Early_intf.optimistic));
  Alcotest.(check bool) "early is conservative" false
    (R.is_optimistic (R.Early Psmr_early.Early_intf.conservative))

let backend_smoke backend () =
  (* Generic BACKEND dispatch: the registry instance must run a workload
     end to end, whatever the family. *)
  let (module B : Psmr_sched.Sched_intf.BACKEND with type cmd = Fc.t) =
    Psmr_early.Registry.instantiate backend (module RP) (module Fc)
  in
  let count = Atomic.make 0 in
  let b = B.start ~workers:3 ~execute:(fun _ -> Atomic.incr count) () in
  let rng = Psmr_util.Rng.create ~seed:40L in
  for i = 0 to 299 do
    B.submit b
      {
        Fc.idx = i;
        fp = [ (Psmr_util.Rng.int rng 8, Psmr_util.Rng.below_percent rng 20.0) ];
      }
  done;
  B.shutdown b;
  Alcotest.(check int) "executed (counter)" 300 (Atomic.get count);
  Alcotest.(check int) "executed (backend)" 300 (B.executed b);
  Alcotest.(check int) "submitted" 300 (B.submitted b)

(* --- the keyed-workload harness on the DES --- *)

let test_keyed_bench_early () =
  let r =
    Psmr_harness.Standalone.run
      ~backend:(Psmr_early.Registry.Early Psmr_early.Early_intf.conservative)
      ~workers:8 ~workload:(Keyed Psmr_workload.Workload.Keyed.low_conflict)
      ~duration:0.01 ~warmup:0.002 ()
  in
  Alcotest.(check bool) "executed some" true (r.executed > 0);
  Alcotest.(check bool) "positive kops" true (r.kops > 0.0);
  Alcotest.(check bool) "fast path dominates" true (r.direct > r.rendezvous);
  Alcotest.(check int) "nothing dropped" 0 r.dropped

let test_keyed_bench_optimistic_repairs () =
  let spec =
    { Psmr_workload.Workload.Keyed.low_conflict with keys = 32; mis_pct = 10.0 }
  in
  let r =
    Psmr_harness.Standalone.run
      ~backend:(Psmr_early.Registry.Early Psmr_early.Early_intf.optimistic)
      ~workers:8 ~workload:(Keyed spec) ~duration:0.01 ~warmup:0.002 ()
  in
  Alcotest.(check bool) "executed some" true (r.executed > 0);
  Alcotest.(check bool) "mis-speculation repaired" true (r.repairs > 0);
  Alcotest.(check bool) "revoked >= repairs" true (r.revoked >= r.repairs)

let test_keyed_bench_crash_respawn () =
  let faults = Psmr_fault.Schedule.parse_exn "worker-crash=2@0.004+0.002" in
  let r =
    Psmr_harness.Standalone.run
      ~backend:(Psmr_early.Registry.Early Psmr_early.Early_intf.conservative)
      ~workers:4 ~workload:(Keyed Psmr_workload.Workload.Keyed.low_conflict)
      ~faults
      ~duration:0.01 ~warmup:0.002 ()
  in
  Alcotest.(check int) "one crash" 1 r.crashed_workers;
  Alcotest.(check bool) "fault injected" true (r.faults_injected >= 1);
  Alcotest.(check bool) "kept executing after respawn" true (r.executed > 0)

let test_keyed_bench_cos_backend () =
  let r =
    Psmr_harness.Standalone.run
      ~backend:(Psmr_early.Registry.Cos Psmr_cos.Registry.Indexed)
      ~workers:8 ~workload:(Keyed Psmr_workload.Workload.Keyed.low_conflict)
      ~duration:0.01 ~warmup:0.002 ()
  in
  Alcotest.(check bool) "executed some" true (r.executed > 0);
  Alcotest.(check int) "no early stats on cos" 0 (r.direct + r.rendezvous)

let () =
  Alcotest.run "early-scheduler"
    [
      ( "correctness",
        [
          Alcotest.test_case "reads parallel, writes exclusive" `Quick
            test_reads_parallel_writes_exclusive;
          Alcotest.test_case "equivalent to sequential" `Quick
            test_equivalent_to_sequential;
          Alcotest.test_case "single worker sequential" `Quick
            test_single_worker_sequential;
          Alcotest.test_case "writes totally ordered" `Quick
            test_all_writes_totally_ordered;
        ] );
      ( "sim",
        [ Alcotest.test_case "deterministic" `Quick test_on_sim_deterministic ]
      );
      ( "class-map",
        [
          Alcotest.test_case "shape and clamping" `Quick test_class_map_shape;
          Alcotest.test_case "plans" `Quick test_class_map_plans;
        ] );
      ( "barrier",
        [ Alcotest.test_case "rendezvous" `Quick test_barrier_rendezvous ] );
      ( "dispatch",
        [
          Alcotest.test_case "one class = readers-writers" `Quick
            test_dispatch_rw_one_class;
          Alcotest.test_case "cross-class writes totally ordered" `Quick
            test_dispatch_cross_class_total_order;
          Alcotest.test_case "equivalent to sequential" `Quick
            test_dispatch_equivalent_to_sequential;
          Alcotest.test_case "shared reads pass, writes gated (DES)" `Quick
            test_dispatch_shared_reads;
        ] );
      ( "optimistic",
        [
          Alcotest.test_case "repair restores final order" `Quick
            test_optimistic_repair_equivalence;
          Alcotest.test_case "double confirm rejected" `Quick
            test_optimistic_double_confirm_rejected;
          Alcotest.test_case "deterministic on sim" `Quick
            test_optimistic_sim_deterministic;
          Alcotest.test_case "zero-mis fast path does no repair work" `Quick
            test_optimistic_zero_mis_fast_path;
          Alcotest.test_case "batched submit stays allocation-flat" `Quick
            test_submit_batch_alloc_budget;
          Alcotest.test_case "batch longer than the window completes" `Quick
            test_submit_batch_longer_than_window;
        ] );
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [
            kv_equivalence;
            bank_equivalence;
            list_equivalence;
            kv_opt_equivalence;
            bank_opt_equivalence;
            list_opt_equivalence;
          ] );
      ( "registry",
        [
          Alcotest.test_case "roundtrip and parsing" `Quick
            test_backend_registry_roundtrip;
          Alcotest.test_case "instantiate early" `Quick
            (backend_smoke
               (Psmr_early.Registry.Early Psmr_early.Early_intf.conservative));
          Alcotest.test_case "instantiate early-4" `Quick
            (backend_smoke
               (Psmr_early.Registry.Early
                  { Psmr_early.Early_intf.classes = Some 4; optimistic = false }));
          Alcotest.test_case "instantiate cos:coarse" `Quick
            (backend_smoke (Psmr_early.Registry.Cos Psmr_cos.Registry.Coarse));
        ] );
      ( "harness",
        [
          Alcotest.test_case "keyed bench early" `Quick test_keyed_bench_early;
          Alcotest.test_case "keyed bench optimistic repairs" `Quick
            test_keyed_bench_optimistic_repairs;
          Alcotest.test_case "keyed bench crash respawn" `Quick
            test_keyed_bench_crash_respawn;
          Alcotest.test_case "keyed bench crash mid-repair (early-opt)" `Quick
            test_keyed_bench_opt_crash_mid_repair;
          Alcotest.test_case "keyed bench cos backend" `Quick
            test_keyed_bench_cos_backend;
        ] );
    ]
