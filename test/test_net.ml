(* Tests for the in-process network substrate, on real threads and on the
   simulator. *)

module RP = Psmr_platform.Real_platform
module Net = Psmr_net.Network.Make (RP)

let test_send_recv () =
  let n = Net.create ~nodes:2 () in
  Net.send n ~src:0 ~dst:1 "hello";
  (match Net.recv n 1 with
  | Some { src; dst; payload } ->
      Alcotest.(check int) "src" 0 src;
      Alcotest.(check int) "dst" 1 dst;
      Alcotest.(check string) "payload" "hello" payload
  | None -> Alcotest.fail "no message");
  Net.shutdown n

let test_fifo_per_link () =
  let n = Net.create ~nodes:2 () in
  for i = 0 to 99 do
    Net.send n ~src:0 ~dst:1 i
  done;
  for i = 0 to 99 do
    match Net.recv n 1 with
    | Some { payload; _ } -> Alcotest.(check int) "in order" i payload
    | None -> Alcotest.fail "missing"
  done;
  Net.shutdown n

let test_crash_drops () =
  let n = Net.create ~nodes:3 () in
  Net.crash n 1;
  Alcotest.(check bool) "crashed" true (Net.is_crashed n 1);
  Net.send n ~src:0 ~dst:1 "lost";
  Net.send n ~src:1 ~dst:2 "lost too";
  Alcotest.(check bool) "from crashed: dropped" true (Net.try_recv n 2 = None);
  Alcotest.(check bool) "recv on crashed returns None" true
    (Net.recv n 1 = None);
  Net.shutdown n

let test_partition () =
  let n = Net.create ~nodes:2 () in
  Net.set_link_filter n (fun ~src ~dst -> not (src = 0 && dst = 1));
  Net.send n ~src:0 ~dst:1 "blocked";
  Alcotest.(check bool) "dropped by partition" true (Net.try_recv n 1 = None);
  Net.heal n;
  Net.send n ~src:0 ~dst:1 "through";
  Alcotest.(check bool) "delivered after heal" true
    (match Net.try_recv n 1 with Some { payload = "through"; _ } -> true | _ -> false);
  Net.shutdown n

let test_blocking_recv_across_threads () =
  let n = Net.create ~nodes:2 () in
  let got = Atomic.make None in
  let th =
    Thread.create (fun () -> Atomic.set got (Net.recv n 1)) ()
  in
  Thread.delay 0.02;
  Net.send n ~src:0 ~dst:1 "wake";
  Thread.join th;
  (match Atomic.get got with
  | Some { payload = "wake"; _ } -> ()
  | Some _ | None -> Alcotest.fail "wrong message");
  Net.shutdown n

let test_stats () =
  let n = Net.create ~nodes:2 () in
  Net.send n ~src:0 ~dst:1 "x";
  Net.send n ~src:1 ~dst:0 "y";
  let sent, delivered = Net.stats n in
  Alcotest.(check int) "sent" 2 sent;
  Alcotest.(check int) "delivered" 2 delivered;
  Net.shutdown n

let test_out_of_range () =
  let n = Net.create ~nodes:2 () in
  Alcotest.check_raises "bad address"
    (Invalid_argument "Network: address 5 out of range") (fun () ->
      Net.send n ~src:0 ~dst:5 "x");
  Net.shutdown n

(* --- latency on the simulator --- *)

let test_sim_latency () =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.zero in
  let module SNet = Psmr_net.Network.Make (SP) in
  let n = SNet.create ~latency:(fun ~src:_ ~dst:_ -> 0.005) ~nodes:2 () in
  let arrival = ref 0.0 in
  Engine.spawn e (fun () ->
      match SNet.recv n 1 with
      | Some { payload = "delayed"; _ } -> arrival := Engine.now e
      | Some _ | None -> failwith "wrong message");
  Engine.spawn e (fun () ->
      Engine.delay 0.001;
      SNet.send n ~src:0 ~dst:1 "delayed");
  Engine.run e;
  Alcotest.(check (float 1e-9)) "arrives after latency" 0.006 !arrival

let test_sim_latency_preserves_order () =
  (* Equal per-link latency keeps FIFO even through the timer path. *)
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.zero in
  let module SNet = Psmr_net.Network.Make (SP) in
  let n = SNet.create ~latency:(fun ~src:_ ~dst:_ -> 0.001) ~nodes:2 () in
  let received = ref [] in
  Engine.spawn e (fun () ->
      let rec loop k =
        if k < 50 then
          match SNet.recv n 1 with
          | Some { payload; _ } ->
              received := payload :: !received;
              loop (k + 1)
          | None -> ()
      in
      loop 0);
  Engine.spawn e (fun () ->
      for i = 0 to 49 do
        SNet.send n ~src:0 ~dst:1 i
      done);
  Engine.run e;
  Alcotest.(check (list int)) "fifo through timers" (List.init 50 Fun.id)
    (List.rev !received)

let test_crash_in_flight () =
  (* A message already in flight is not delivered to a crashed destination. *)
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.zero in
  let module SNet = Psmr_net.Network.Make (SP) in
  let n = SNet.create ~latency:(fun ~src:_ ~dst:_ -> 0.010) ~nodes:2 () in
  Engine.spawn e (fun () -> SNet.send n ~src:0 ~dst:1 "in-flight");
  Engine.spawn e ~delay:0.001 (fun () -> SNet.crash n 1);
  Engine.run e;
  let _, delivered = SNet.stats n in
  Alcotest.(check int) "dropped at delivery time" 0 delivered

(* --- the receive buffer: one mailbox lock round per burst --- *)

let test_sim_burst_one_lock_round () =
  (* k messages queued at a busy receiver cost it one mailbox lock round:
     the first [recv] moves them all into the endpoint's buffer and the
     rest are served from it.  Receiving touches no atomic, so the virtual
     time the k receives take is exactly one lock plus one unlock. *)
  let open Psmr_sim in
  let e = Engine.create () in
  let costs = Costs.default in
  let (module SP) = Sim_platform.make e costs in
  let module SNet = Psmr_net.Network.Make (SP) in
  let n = SNet.create ~nodes:2 () in
  let k = 8 in
  let received = ref [] and elapsed = ref nan in
  Engine.spawn e (fun () ->
      for i = 1 to k do
        SNet.send n ~src:0 ~dst:1 i
      done);
  Engine.spawn e ~delay:0.001 (fun () ->
      let t0 = SP.now () in
      for _ = 1 to k do
        match SNet.recv n 1 with
        | Some { payload; _ } -> received := payload :: !received
        | None -> ()
      done;
      elapsed := SP.now () -. t0);
  Engine.run e;
  Alcotest.(check (list int)) "all, in order" (List.init k succ)
    (List.rev !received);
  Alcotest.(check (float 1e-12)) "one lock round for the burst"
    (costs.mutex_lock +. costs.mutex_unlock)
    !elapsed

let test_sim_backlog_counts_buffered () =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let module SNet = Psmr_net.Network.Make (SP) in
  let n = SNet.create ~nodes:2 () in
  let backlogs = ref [] in
  let note () = backlogs := SNet.backlog n 1 :: !backlogs in
  Engine.spawn e (fun () ->
      for i = 1 to 5 do
        SNet.send n ~src:0 ~dst:1 i
      done;
      note ();
      ignore (SNet.recv n 1 : int SNet.envelope option);
      (* Four buffered, none queued. *)
      note ();
      SNet.send n ~src:0 ~dst:1 6;
      SNet.send n ~src:0 ~dst:1 7;
      (* Four buffered, two queued. *)
      note ();
      for _ = 1 to 6 do
        ignore (SNet.recv n 1 : int SNet.envelope option)
      done;
      note ());
  Engine.run e;
  Alcotest.(check (list int)) "queued plus buffered" [ 5; 4; 6; 0 ]
    (List.rev !backlogs)

let test_sim_crash_drains_buffered () =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let module SNet = Psmr_net.Network.Make (SP) in
  let n = SNet.create ~nodes:2 () in
  let received = ref [] and ended = ref false in
  Engine.spawn e (fun () ->
      for i = 1 to 3 do
        SNet.send n ~src:0 ~dst:1 i
      done;
      let take () =
        match SNet.recv n 1 with
        | Some { payload; _ } ->
            received := payload :: !received;
            true
        | None -> false
      in
      ignore (take () : bool);
      (* 2 and 3 are now in the receive buffer. *)
      SNet.crash n 1;
      SNet.send n ~src:0 ~dst:1 4;
      while take () do () done;
      ended := true);
  Engine.run e;
  Alcotest.(check (list int)) "buffered messages drain, later ones are lost"
    [ 1; 2; 3 ] (List.rev !received);
  Alcotest.(check bool) "then None" true !ended

(* --- injected message faults, from an armed fault plan --- *)

let test_injected_loss () =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.zero in
  let module SNet = Psmr_net.Network.Make (SP) in
  let plan =
    Psmr_fault.Plan.make
      ~now:(fun () -> Engine.now e)
      (Psmr_fault.Schedule.parse_exn "net-loss=100")
  in
  let n = SNet.create ~nodes:2 () in
  Psmr_fault.Plan.with_plan plan (fun () ->
      Engine.spawn e (fun () ->
          for i = 0 to 9 do
            SNet.send n ~src:0 ~dst:1 i
          done);
      Engine.run e);
  let sent, delivered = SNet.stats n in
  Alcotest.(check int) "all sent" 10 sent;
  Alcotest.(check int) "all lost" 0 delivered;
  Alcotest.(check int) "all recorded" 10 (Psmr_fault.Plan.injected plan)

let test_injected_duplication () =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.zero in
  let module SNet = Psmr_net.Network.Make (SP) in
  let plan =
    Psmr_fault.Plan.make
      ~now:(fun () -> Engine.now e)
      (Psmr_fault.Schedule.parse_exn "net-dup=100")
  in
  let n = SNet.create ~latency:(fun ~src:_ ~dst:_ -> 0.001) ~nodes:2 () in
  let received = ref [] in
  Psmr_fault.Plan.with_plan plan (fun () ->
      Engine.spawn e (fun () ->
          let rec loop k =
            if k < 6 then
              match SNet.recv n 1 with
              | Some { payload; _ } ->
                  received := payload :: !received;
                  loop (k + 1)
              | None -> ()
          in
          loop 0);
      Engine.spawn e (fun () ->
          for i = 0 to 2 do
            SNet.send n ~src:0 ~dst:1 i
          done);
      Engine.run e);
  (* Every message arrives twice; deduplication is the receiver's job. *)
  Alcotest.(check (list int)) "each delivered twice" [ 0; 0; 1; 1; 2; 2 ]
    (List.sort compare !received)

let test_injected_delay_preserves_order () =
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.zero in
  let module SNet = Psmr_net.Network.Make (SP) in
  let plan =
    Psmr_fault.Plan.make
      ~now:(fun () -> Engine.now e)
      (Psmr_fault.Schedule.parse_exn "net-delay=100:0.004")
  in
  let n = SNet.create ~latency:(fun ~src:_ ~dst:_ -> 0.001) ~nodes:2 () in
  let received = ref [] in
  let last_arrival = ref 0.0 in
  Psmr_fault.Plan.with_plan plan (fun () ->
      Engine.spawn e (fun () ->
          let rec loop k =
            if k < 20 then
              match SNet.recv n 1 with
              | Some { payload; _ } ->
                  received := payload :: !received;
                  last_arrival := Engine.now e;
                  loop (k + 1)
              | None -> ()
          in
          loop 0);
      Engine.spawn e (fun () ->
          for i = 0 to 19 do
            SNet.send n ~src:0 ~dst:1 i
          done);
      Engine.run e);
  (* A uniform extra delay shifts every arrival but never reorders. *)
  Alcotest.(check (list int)) "fifo preserved under delay"
    (List.init 20 Fun.id) (List.rev !received);
  Alcotest.(check (float 1e-9)) "shifted by the extra delay" 0.005
    !last_arrival

let test_restore_after_crash () =
  let n = Net.create ~nodes:2 () in
  Net.crash n 1;
  Net.send n ~src:0 ~dst:1 "lost while down";
  Alcotest.(check bool) "down: recv drains" true (Net.recv n 1 = None);
  Net.restore n 1;
  Alcotest.(check bool) "restored" false (Net.is_crashed n 1);
  Net.send n ~src:0 ~dst:1 "after recovery";
  (match Net.try_recv n 1 with
  | Some { payload = "after recovery"; _ } -> ()
  | Some _ | None -> Alcotest.fail "message after restore not delivered");
  (* The message sent while down stays lost. *)
  Alcotest.(check bool) "no replay of lost traffic" true
    (Net.try_recv n 1 = None);
  (* A message already in the receive buffer at the crash is lost too:
     [restore] replaces the buffer along with the mailbox. *)
  Net.send n ~src:0 ~dst:1 "received";
  Net.send n ~src:0 ~dst:1 "buffered at the crash";
  (match Net.recv n 1 with
  | Some { payload = "received"; _ } -> ()
  | Some _ | None -> Alcotest.fail "first message not received");
  Alcotest.(check int) "one message buffered" 1 (Net.backlog n 1);
  Net.crash n 1;
  Net.restore n 1;
  Alcotest.(check int) "restored endpoint is empty" 0 (Net.backlog n 1);
  Net.send n ~src:0 ~dst:1 "after second recovery";
  (match Net.try_recv n 1 with
  | Some { payload = "after second recovery"; _ } -> ()
  | Some _ | None -> Alcotest.fail "buffered message replayed after restore");
  Alcotest.(check bool) "no replay of buffered traffic" true
    (Net.try_recv n 1 = None);
  Net.shutdown n

(* Bit-identity: the same scenario with no plan armed and with an armed
   empty schedule must produce the same virtual-time history. *)
let test_empty_plan_zero_perturbation () =
  let open Psmr_sim in
  let scenario ~arm_empty_plan () =
    let e = Engine.create () in
    let (module SP) = Sim_platform.make e Costs.default in
    let module SNet = Psmr_net.Network.Make (SP) in
    let n = SNet.create ~latency:(fun ~src:_ ~dst:_ -> 0.0015) ~nodes:2 () in
    let run () =
      Engine.spawn e (fun () ->
          let rec loop k =
            if k < 40 then
              match SNet.recv n 1 with
              | Some _ -> loop (k + 1)
              | None -> ()
          in
          loop 0);
      Engine.spawn e (fun () ->
          for i = 0 to 39 do
            SNet.send n ~src:0 ~dst:1 i;
            SP.sleep 1e-4
          done);
      Engine.run e;
      let now = Engine.now e and executed = Engine.events_executed e in
      (* Non-zero costs charge Atomic reads, so stats must be read from
         inside the engine; this runs after the history under comparison. *)
      let stats = ref (0, 0) in
      Engine.spawn e (fun () -> stats := SNet.stats n);
      Engine.run e;
      (now, executed, !stats)
    in
    if arm_empty_plan then
      Psmr_fault.Plan.with_plan
        (Psmr_fault.Plan.make
           ~now:(fun () -> Engine.now e)
           Psmr_fault.Schedule.empty)
        run
    else run ()
  in
  let reference = scenario ~arm_empty_plan:false () in
  let armed = scenario ~arm_empty_plan:true () in
  Alcotest.(check bool)
    "bit-identical end time, event count and delivery stats" true
    (reference = armed)

let () =
  Alcotest.run "net"
    [
      ( "basic",
        [
          Alcotest.test_case "send/recv" `Quick test_send_recv;
          Alcotest.test_case "fifo per link" `Quick test_fifo_per_link;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "address range" `Quick test_out_of_range;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash drops" `Quick test_crash_drops;
          Alcotest.test_case "partition" `Quick test_partition;
        ] );
      ( "threads",
        [ Alcotest.test_case "blocking recv" `Quick test_blocking_recv_across_threads ] );
      ( "sim",
        [
          Alcotest.test_case "latency" `Quick test_sim_latency;
          Alcotest.test_case "latency keeps fifo" `Quick test_sim_latency_preserves_order;
          Alcotest.test_case "crash in flight" `Quick test_crash_in_flight;
          Alcotest.test_case "burst costs one lock round" `Quick
            test_sim_burst_one_lock_round;
          Alcotest.test_case "backlog counts buffered" `Quick
            test_sim_backlog_counts_buffered;
          Alcotest.test_case "crash drains buffered" `Quick
            test_sim_crash_drains_buffered;
        ] );
      ( "injected",
        [
          Alcotest.test_case "loss drops at send" `Quick test_injected_loss;
          Alcotest.test_case "duplication delivers twice" `Quick
            test_injected_duplication;
          Alcotest.test_case "delay preserves order" `Quick
            test_injected_delay_preserves_order;
          Alcotest.test_case "restore after crash" `Quick
            test_restore_after_crash;
          Alcotest.test_case "empty plan is zero perturbation" `Quick
            test_empty_plan_zero_perturbation;
        ] );
    ]
