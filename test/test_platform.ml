(* Tests for the platform-generic concurrency helpers (mailbox, latch) on
   both the real-thread platform and the simulator, and for the platform
   operations themselves. *)

module RP = Psmr_platform.Real_platform
module MB = Psmr_platform.Mailbox.Make (RP)
module Latch = Psmr_platform.Latch.Make (RP)

let test_mailbox_fifo () =
  let mb = MB.create () in
  for i = 0 to 99 do
    ignore (MB.put mb i : bool)
  done;
  Alcotest.(check int) "length" 100 (MB.length mb);
  for i = 0 to 99 do
    Alcotest.(check (option int)) "fifo" (Some i) (MB.take mb)
  done

let test_mailbox_close_drains () =
  let mb = MB.create () in
  ignore (MB.put mb 1 : bool);
  ignore (MB.put mb 2 : bool);
  MB.close mb;
  Alcotest.(check bool) "rejects after close" false (MB.put mb 3);
  Alcotest.(check (option int)) "drains 1" (Some 1) (MB.take mb);
  Alcotest.(check (option int)) "drains 2" (Some 2) (MB.take mb);
  Alcotest.(check (option int)) "then none" None (MB.take mb);
  Alcotest.(check bool) "is_closed" true (MB.is_closed mb)

let test_mailbox_blocking_take () =
  let mb = MB.create () in
  let got = Atomic.make 0 in
  let th = Thread.create (fun () -> Atomic.set got (Option.get (MB.take mb))) () in
  Thread.delay 0.02;
  Alcotest.(check int) "still blocked" 0 (Atomic.get got);
  ignore (MB.put mb 42 : bool);
  Thread.join th;
  Alcotest.(check int) "woken with value" 42 (Atomic.get got)

let test_mailbox_try_take () =
  let mb = MB.create () in
  Alcotest.(check (option int)) "empty" None (MB.try_take mb);
  ignore (MB.put mb 7 : bool);
  Alcotest.(check (option int)) "value" (Some 7) (MB.try_take mb)

let drained q = List.of_seq (Queue.to_seq q)

let test_mailbox_take_all_fifo () =
  let mb = MB.create () in
  for i = 0 to 9 do
    ignore (MB.put mb i : bool)
  done;
  (match MB.take_all mb with
  | Some q -> Alcotest.(check (list int)) "all, in order" (List.init 10 Fun.id) (drained q)
  | None -> Alcotest.fail "take_all on a non-empty mailbox");
  Alcotest.(check int) "mailbox emptied" 0 (MB.length mb);
  ignore (MB.put mb 10 : bool);
  Alcotest.(check (option (list int))) "later puts come next" (Some [ 10 ])
    (Option.map drained (MB.take_all mb))

let test_mailbox_take_all_blocks () =
  let mb = MB.create () in
  let got = Atomic.make None in
  let th =
    Thread.create (fun () -> Atomic.set got (Option.map drained (MB.take_all mb))) ()
  in
  Thread.delay 0.02;
  Alcotest.(check (option (list int))) "still blocked" None (Atomic.get got);
  ignore (MB.put mb 42 : bool);
  Thread.join th;
  Alcotest.(check (option (list int))) "woken with the put" (Some [ 42 ])
    (Atomic.get got)

let test_mailbox_take_all_close_drains () =
  let mb = MB.create () in
  ignore (MB.put mb 1 : bool);
  ignore (MB.put mb 2 : bool);
  MB.close mb;
  Alcotest.(check (option (list int))) "drains what was queued" (Some [ 1; 2 ])
    (Option.map drained (MB.take_all mb));
  Alcotest.(check bool) "then none" true (MB.take_all mb = None);
  (* A closed empty mailbox answers at once, even to a blocked taker. *)
  let mb = MB.create () in
  let got = Atomic.make (Some (Queue.create ())) in
  let th = Thread.create (fun () -> Atomic.set got (MB.take_all mb)) () in
  Thread.delay 0.02;
  MB.close mb;
  Thread.join th;
  Alcotest.(check bool) "blocked taker released by close" true
    (Atomic.get got = None)

let test_mailbox_concurrent_producers () =
  let mb = MB.create () in
  let producers = 4 and per = 500 in
  let threads =
    List.init producers (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to per - 1 do
              ignore (MB.put mb ((p * per) + i) : bool)
            done)
          ())
  in
  List.iter Thread.join threads;
  let seen = Hashtbl.create 2048 in
  for _ = 1 to producers * per do
    match MB.try_take mb with
    | Some v ->
        if Hashtbl.mem seen v then Alcotest.failf "duplicate %d" v;
        Hashtbl.replace seen v ()
    | None -> Alcotest.fail "missing message"
  done;
  Alcotest.(check int) "all distinct" (producers * per) (Hashtbl.length seen)

let test_latch_basic () =
  let l = Latch.create 3 in
  Alcotest.(check int) "remaining" 3 (Latch.remaining l);
  Latch.count_down l;
  Latch.count_down l;
  let released = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        Latch.wait l;
        Atomic.set released true)
      ()
  in
  Thread.delay 0.02;
  Alcotest.(check bool) "still waiting" false (Atomic.get released);
  Latch.count_down l;
  Thread.join th;
  Alcotest.(check bool) "released" true (Atomic.get released)

let test_latch_zero_immediate () =
  let l = Latch.create 0 in
  Latch.wait l (* must not block *)

let test_latch_excess_count_down () =
  let l = Latch.create 1 in
  Latch.count_down l;
  Latch.count_down l;
  (* extra decrements are ignored *)
  Alcotest.(check int) "floor at zero" 0 (Latch.remaining l)

let test_latch_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Latch.create: negative count")
    (fun () -> ignore (Latch.create (-1) : Latch.t))

(* --- the same helpers on the simulator --- *)

let test_mailbox_on_sim () =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let module SMB = Psmr_platform.Mailbox.Make (SP) in
  let mb = SMB.create () in
  let received = ref [] in
  Engine.spawn e (fun () ->
      let rec loop () =
        match SMB.take mb with
        | Some v ->
            received := v :: !received;
            loop ()
        | None -> ()
      in
      loop ());
  Engine.spawn e (fun () ->
      for i = 1 to 5 do
        SP.sleep 0.01;
        ignore (SMB.put mb i : bool)
      done;
      SMB.close mb);
  Engine.run e;
  Alcotest.(check (list int)) "all in order" [ 1; 2; 3; 4; 5 ] (List.rev !received)

let test_mailbox_take_all_on_sim () =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let module SMB = Psmr_platform.Mailbox.Make (SP) in
  let mb = SMB.create () in
  let batches = ref [] and first_at = ref 0.0 and ended = ref false in
  Engine.spawn e (fun () ->
      let rec loop () =
        match SMB.take_all mb with
        | Some q ->
            if !batches = [] then first_at := SP.now ();
            batches := drained q :: !batches;
            loop ()
        | None -> ended := true
      in
      loop ());
  Engine.spawn e (fun () ->
      SP.sleep 0.01;
      ignore (SMB.put mb 1 : bool);
      ignore (SMB.put mb 2 : bool);
      SP.sleep 0.01;
      ignore (SMB.put mb 3 : bool);
      ignore (SMB.put mb 4 : bool);
      SMB.close mb);
  Engine.run e;
  Alcotest.(check bool) "blocked until the first put" true (!first_at >= 0.01);
  Alcotest.(check bool) "no empty batch" true
    (List.for_all (fun b -> b <> []) !batches);
  Alcotest.(check (list int)) "fifo across batches" [ 1; 2; 3; 4 ]
    (List.concat (List.rev !batches));
  Alcotest.(check bool) "None after close and drain" true !ended

let test_latch_on_sim () =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let module SL = Psmr_platform.Latch.Make (SP) in
  let l = SL.create 4 in
  let released_at = ref 0.0 in
  Engine.spawn e (fun () ->
      SL.wait l;
      released_at := SP.now ());
  for i = 1 to 4 do
    Engine.spawn e ~delay:(0.1 *. float_of_int i) (fun () -> SL.count_down l)
  done;
  Engine.run e;
  Alcotest.(check bool) "released after last count_down" true
    (!released_at >= 0.4)

let test_real_platform_after () =
  let fired = Atomic.make false in
  RP.after 0.02 (fun () -> Atomic.set fired true);
  Alcotest.(check bool) "not yet" false (Atomic.get fired);
  Thread.delay 0.08;
  Alcotest.(check bool) "fired" true (Atomic.get fired)

let test_real_platform_atomics () =
  let a = RP.Atomic.make 10 in
  Alcotest.(check int) "fetch_and_add returns old" 10 (RP.Atomic.fetch_and_add a 5);
  Alcotest.(check int) "added" 15 (RP.Atomic.get a);
  Alcotest.(check bool) "cas hit" true (RP.Atomic.compare_and_set a 15 1);
  Alcotest.(check bool) "cas miss" false (RP.Atomic.compare_and_set a 15 2);
  Alcotest.(check int) "exchange" 1 (RP.Atomic.exchange a 9)

let test_semaphore_release_n_real () =
  let s = RP.Semaphore.create 0 in
  RP.Semaphore.release ~n:3 s;
  Alcotest.(check int) "value 3" 3 (RP.Semaphore.value s);
  RP.Semaphore.acquire s;
  RP.Semaphore.acquire s;
  RP.Semaphore.acquire s;
  Alcotest.(check int) "drained" 0 (RP.Semaphore.value s)

(* OCaml's error-checking mutex rejects an unlock of an unheld mutex and
   one by a non-owner, and a wait on a mutex the caller does not hold; the
   simulated platforms raise the same (test_sim "unlock by non-owner"). *)
let test_real_unlock_not_owner () =
  let m = RP.Mutex.create () and c = RP.Condition.create () in
  let denied = Sys_error "Mutex.unlock: Operation not permitted" in
  Alcotest.check_raises "unheld" denied (fun () -> RP.Mutex.unlock m);
  RP.Mutex.lock m;
  let other = ref None in
  let th =
    Thread.create (fun () -> try RP.Mutex.unlock m with e -> other := Some e) ()
  in
  Thread.join th;
  Alcotest.(check bool) "non-owner" true (!other = Some denied);
  RP.Mutex.unlock m;
  Alcotest.check_raises "wait unheld"
    (Sys_error "Condition.wait: Operation not permitted") (fun () ->
      RP.Condition.wait c m)

let () =
  Alcotest.run "platform"
    [
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "close drains" `Quick test_mailbox_close_drains;
          Alcotest.test_case "blocking take" `Quick test_mailbox_blocking_take;
          Alcotest.test_case "try_take" `Quick test_mailbox_try_take;
          Alcotest.test_case "concurrent producers" `Quick
            test_mailbox_concurrent_producers;
          Alcotest.test_case "take_all fifo" `Quick test_mailbox_take_all_fifo;
          Alcotest.test_case "take_all blocks" `Quick test_mailbox_take_all_blocks;
          Alcotest.test_case "take_all close drains" `Quick
            test_mailbox_take_all_close_drains;
        ] );
      ( "latch",
        [
          Alcotest.test_case "basic" `Quick test_latch_basic;
          Alcotest.test_case "zero immediate" `Quick test_latch_zero_immediate;
          Alcotest.test_case "excess count_down" `Quick test_latch_excess_count_down;
          Alcotest.test_case "negative rejected" `Quick test_latch_negative;
        ] );
      ( "on-sim",
        [
          Alcotest.test_case "mailbox" `Quick test_mailbox_on_sim;
          Alcotest.test_case "mailbox take_all" `Quick test_mailbox_take_all_on_sim;
          Alcotest.test_case "latch" `Quick test_latch_on_sim;
        ] );
      ( "real-platform",
        [
          Alcotest.test_case "after" `Quick test_real_platform_after;
          Alcotest.test_case "atomics" `Quick test_real_platform_atomics;
          Alcotest.test_case "semaphore release n" `Quick
            test_semaphore_release_n_real;
          Alcotest.test_case "unlock by non-owner" `Quick
            test_real_unlock_not_owner;
        ] );
    ]
