(* Unit tests for the atomic broadcast protocol, driven deterministically on
   the simulated platform: virtual time controls batching, heartbeats and
   election timeouts exactly. *)

open Psmr_broadcast

(* A 3-replica harness on the simulator: replicas exchange protocol messages
   through the simulated network; each replica has an event-loop process and
   a ticker process, mirroring the deployment wiring. *)
module Harness = struct
  type t = {
    engine : Psmr_sim.Engine.t;
    deliveries : (float * int list) list ref array;
        (* per replica, newest first: (delivery time, batch) *)
    cut_at : (int, float) Hashtbl.t;
        (* command -> time the leader first sent it in a [Prepare] *)
    views : (unit -> int) array;
    views_installed : (unit -> int) array;
    log_info : (unit -> int * int) array;  (* per replica: (base, length) *)
    crash : int -> unit;
    partition : (src:int -> dst:int -> bool) -> unit;
    heal : unit -> unit;
    run_until : float -> unit;
  }

  let config =
    {
      Abcast.batch_max = 8;
      batch_delay = 1e-3;
      heartbeat_interval = 5e-3;
      election_timeout = 50e-3;
      checkpoint_interval = 16;
    }

  (* [drop ~src ~dst msg] discards one protocol message before it reaches
     the network, for losses a link filter cannot single out. *)
  let make ?(config = config) ?(n = 3) ?(latency = 1e-4) ?(submit = fun _ -> [])
      ?(faults = Psmr_fault.Schedule.empty) ?(drop = fun ~src:_ ~dst:_ _ -> false)
      () =
    let engine = Psmr_sim.Engine.create () in
    (* Armed around [run_until], so every send the protocol makes consults
       the fault plan; the empty schedule never fires and changes nothing. *)
    let plan =
      Psmr_fault.Plan.make ~now:(fun () -> Psmr_sim.Engine.now engine) faults
    in
    let (module SP) = Psmr_sim.Sim_platform.make engine Psmr_sim.Costs.zero in
    let module Net = Psmr_net.Network.Make (SP) in
    let module Ab = Abcast.Make (SP) in
    (* Wire type: protocol messages plus self-addressed ticks, which cross
       no link. *)
    let net =
      Net.create
        ~latency:(fun ~src ~dst -> if src = dst then 0.0 else latency)
        ~nodes:n ()
    in
    let deliveries = Array.init n (fun _ -> ref []) in
    let cut_at = Hashtbl.create 64 in
    let abs =
      Array.init n (fun id ->
          Ab.create ~config ~id ~n
            ~send:(fun dst msg ->
              (match msg with
              | Abcast.Prepare { cmds; _ } ->
                  Array.iter
                    (fun c ->
                      if not (Hashtbl.mem cut_at c) then
                        Hashtbl.add cut_at c (SP.now ()))
                    cmds
              | _ -> ());
              if not (drop ~src:id ~dst msg) then
                Net.send net ~src:id ~dst (`Proto msg))
            ~deliver:(fun batch ->
              deliveries.(id) :=
                (SP.now (), Array.to_list batch) :: !(deliveries.(id)))
            ())
    in
    Array.iteri
      (fun id ab ->
        Psmr_sim.Engine.spawn engine (fun () ->
            let rec loop () =
              match Net.recv net id with
              | None -> ()
              | Some { src; payload; _ } ->
                  (match payload with
                  | `Proto m -> Ab.handle ab ~src m
                  | `Tick -> Ab.tick ab);
                  loop ()
            in
            loop ());
        Psmr_sim.Engine.spawn engine (fun () ->
            let rec tick_loop () =
              if not (Net.is_crashed net id) then begin
                SP.sleep 1e-3;
                Net.send net ~src:id ~dst:id `Tick;
                tick_loop ()
              end
            in
            tick_loop ()))
      abs;
    (* Command source: at time given by [submit], feed commands to the
       replica of choice. *)
    List.iter
      (fun (at, replica, cmds) ->
        Psmr_sim.Engine.spawn engine ~delay:at (fun () ->
            Ab.submit abs.(replica) (Array.of_list cmds)))
      (submit ());
    {
      engine;
      deliveries;
      cut_at;
      views = Array.map (fun ab () -> Ab.view ab) abs;
      views_installed = Array.map (fun ab () -> Ab.views_installed ab) abs;
      log_info = Array.map (fun ab () -> (Ab.log_base ab, Ab.log_length ab)) abs;
      crash = (fun id -> Net.crash net id);
      partition = (fun f -> Net.set_link_filter net f);
      heal = (fun () -> Net.heal net);
      run_until =
        (fun t ->
          Psmr_fault.Plan.with_plan plan (fun () ->
              Psmr_sim.Engine.run ~until:t engine));
    }

  let batches t id = List.rev_map snd !(t.deliveries.(id))
  let delivered t id = List.concat (batches t id)

  (* Time replica [id] delivered command [c]. *)
  let delivered_at t id c =
    fst (List.find (fun (_, b) -> List.mem c b) !(t.deliveries.(id)))

  let cut_at t c = Hashtbl.find t.cut_at c
end

let test_total_order_basic () =
  let h =
    Harness.make ~submit:(fun () -> [ (0.001, 0, [ 1; 2; 3 ]) ]) ()
  in
  h.run_until 0.5;
  let d0 = Harness.delivered h 0 in
  Alcotest.(check (list int)) "leader delivers" [ 1; 2; 3 ] d0;
  Alcotest.(check (list int)) "replica 1 same" d0 (Harness.delivered h 1);
  Alcotest.(check (list int)) "replica 2 same" d0 (Harness.delivered h 2)

let test_submit_via_follower_forwards () =
  let h = Harness.make ~submit:(fun () -> [ (0.001, 1, [ 42 ]) ]) () in
  h.run_until 0.5;
  Alcotest.(check (list int)) "ordered via leader" [ 42 ] (Harness.delivered h 2)

let test_batching_by_size () =
  (* 8 commands at once fit exactly one batch (batch_max = 8): they must be
     delivered contiguously and immediately, without waiting batch_delay. *)
  let h =
    Harness.make ~submit:(fun () -> [ (0.001, 0, [ 1; 2; 3; 4; 5; 6; 7; 8 ]) ]) ()
  in
  h.run_until 0.01;
  Alcotest.(check (list int)) "full batch cut immediately"
    [ 1; 2; 3; 4; 5; 6; 7; 8 ] (Harness.delivered h 1)

let test_batching_by_delay () =
  (* [batch_delay] caps the wait while the window is full: batches 1 to 4
     can never commit at the leader (nothing reaches it), so the four fill
     its window, yet the partial batch opened behind them at 1.5 ms is
     still cut, on the first 1 ms tick past its [batch_delay] age.  The
     followers accept all five and, as the second of f + 1 = 2 holders,
     deliver each on acceptance; the leader delivers all five, in order,
     once the links heal. *)
  let h =
    Harness.make
      ~submit:(fun () ->
        [
          (0.001, 0, [ 1 ]);
          (0.0011, 0, [ 2 ]);
          (0.0012, 0, [ 3 ]);
          (0.0013, 0, [ 4 ]);
          (0.0015, 0, [ 9 ]);
        ])
      ()
  in
  h.partition (fun ~src ~dst -> dst <> 0 || src = 0);
  h.run_until 0.01;
  Alcotest.(check (float 1e-9)) "batch 4 cut on submission" 0.0013
    (Harness.cut_at h 4);
  Alcotest.(check (float 1e-9)) "cut on the first tick past its age" 0.003
    (Harness.cut_at h 9);
  Alcotest.(check (list (list int))) "nothing commits at the leader" []
    (Harness.batches h 0);
  let five = [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 9 ] ] in
  Alcotest.(check (list (list int))) "followers deliver on acceptance" five
    (Harness.batches h 1);
  Alcotest.(check (list (list int))) "replica 2 too" five (Harness.batches h 2);
  h.heal ();
  h.run_until 0.5;
  Alcotest.(check (list (list int))) "all five batches, in order, at the leader"
    five (Harness.batches h 0)

let test_batching_idle_cut () =
  (* With room in the window the leader cuts at once: a command submitted
     at idle is delivered by the followers as they accept its Prepare
     (0.1 ms over 0.1 ms links), well before [batch_delay]. *)
  let h = Harness.make ~submit:(fun () -> [ (0.001, 0, [ 9 ]) ]) () in
  h.run_until 0.0015;
  Alcotest.(check (float 1e-9)) "cut on submission" 0.001 (Harness.cut_at h 9);
  Alcotest.(check (list (list int))) "replica 1 delivered" [ [ 9 ] ]
    (Harness.batches h 1);
  Alcotest.(check (list (list int))) "replica 2 delivered" [ [ 9 ] ]
    (Harness.batches h 2)

let test_batching_in_flight_accumulates () =
  (* Batches 2 to 4 leave on submission, while batch 1 is uncommitted: the
     window holds four.  Commands submitted while all four are uncommitted
     wait and then leave as one batch, cut in the same step that commits
     batch 1 at the leader. *)
  let h =
    Harness.make
      ~submit:(fun () ->
        [
          (0.001, 0, [ 1 ]);
          (0.00102, 0, [ 2 ]);
          (0.00104, 0, [ 3 ]);
          (0.00106, 0, [ 4 ]);
          (0.00108, 0, [ 5 ]);
          (0.0011, 0, [ 6 ]);
        ])
      ()
  in
  h.run_until 0.002;
  Alcotest.(check (list (list int))) "one batch behind the window"
    [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 5; 6 ] ]
    (Harness.batches h 1);
  Alcotest.(check (float 1e-9)) "batch 4 cut on submission" 0.00106
    (Harness.cut_at h 4);
  Alcotest.(check (float 0.0)) "batch 5 cut when batch 1 commits"
    (Harness.delivered_at h 0 1) (Harness.cut_at h 5)

let test_batching_fifth_waits_for_first_commit () =
  (* Five single-command batches submitted 10 us apart over 0.1 ms links:
     the first four are cut on submission, and the fifth waits for the
     window to open, which happens when batch 1 commits at the leader on
     its first ack, two hops after its cut. *)
  let h =
    Harness.make
      ~submit:(fun () ->
        List.init 5 (fun i ->
            (0.001 +. (1e-5 *. float_of_int i), 0, [ i + 1 ])))
      ()
  in
  h.run_until 0.002;
  List.iter
    (fun c ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "batch %d cut on submission" c)
        (0.001 +. (1e-5 *. float_of_int (c - 1)))
        (Harness.cut_at h c))
    [ 1; 2; 3; 4 ];
  Alcotest.(check (float 1e-9)) "batch 1 commits at the leader two hops later"
    (0.001 +. 2e-4) (Harness.delivered_at h 0 1);
  Alcotest.(check (float 0.0)) "the fifth is cut as batch 1 commits"
    (Harness.delivered_at h 0 1) (Harness.cut_at h 5);
  Alcotest.(check (list (list int)))
    "five batches"
    [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 5 ] ]
    (Harness.batches h 1)

let test_batching_delay_cap_slow_links () =
  (* Links slower than [batch_delay] (2 ms against 1 ms): batches 2 to 4
     fill the window on submission, and the fifth batch does not wait for
     the first to commit at 5 ms, it is cut on the first tick past its age
     while the first four are still in flight. *)
  let h =
    Harness.make ~latency:2e-3
      ~submit:(fun () ->
        [
          (0.001, 0, [ 1 ]);
          (0.0011, 0, [ 2 ]);
          (0.0012, 0, [ 3 ]);
          (0.0013, 0, [ 4 ]);
          (0.0015, 0, [ 5 ]);
        ])
      ()
  in
  h.run_until 0.05;
  Alcotest.(check (float 1e-9)) "batch 4 cut on submission" 0.0013
    (Harness.cut_at h 4);
  Alcotest.(check (float 1e-9)) "cut on the first tick past its age" 0.003
    (Harness.cut_at h 5);
  Alcotest.(check (float 1e-9)) "batch 1 committed later" 0.005
    (Harness.delivered_at h 0 1);
  Alcotest.(check (list (list int))) "five batches"
    [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 5 ] ]
    (Harness.batches h 1)

let test_many_batches_total_order () =
  let submits =
    List.init 40 (fun i -> (0.001 +. (0.0007 *. float_of_int i), 0, [ i ]))
  in
  let h = Harness.make ~submit:(fun () -> submits) () in
  h.run_until 1.0;
  let d0 = Harness.delivered h 0 in
  Alcotest.(check int) "all delivered" 40 (List.length d0);
  Alcotest.(check (list int)) "in submission order" (List.init 40 Fun.id) d0;
  Alcotest.(check (list int)) "replica1 identical" d0 (Harness.delivered h 1);
  Alcotest.(check (list int)) "replica2 identical" d0 (Harness.delivered h 2)

(* --- the commit rule: a replica delivers once it knows f + 1 holders --- *)

let test_three_replicas_follower_commits_on_accept () =
  (* n = 3: the leader and an accepting follower are f + 1 = 2 holders, so
     each follower delivers a batch cut at t as its Prepare lands, at
     t + 0.1 ms, and the leader when the first Prepare_ok lands, at
     t + 0.2 ms. *)
  let h = Harness.make ~submit:(fun () -> [ (0.001, 0, [ 9 ]) ]) () in
  h.run_until 0.01;
  let t = Harness.cut_at h 9 in
  Alcotest.(check (float 1e-9)) "replica 1 on acceptance" (t +. 1e-4)
    (Harness.delivered_at h 1 9);
  Alcotest.(check (float 1e-9)) "replica 2 on acceptance" (t +. 1e-4)
    (Harness.delivered_at h 2 9);
  Alcotest.(check (float 1e-9)) "leader on the first ack" (t +. 2e-4)
    (Harness.delivered_at h 0 9)

(* Each replica's delivery delay after the cut for one single-command
   batch, at 0.1 ms per link, with [link] filtering the links. *)
let commit_delays ?(link = fun ~src:_ ~dst:_ -> true) n =
  let h = Harness.make ~n ~submit:(fun () -> [ (0.001, 0, [ 9 ]) ]) () in
  h.partition link;
  h.run_until 0.01;
  let t = Harness.cut_at h 9 in
  List.init n (fun id -> Harness.delivered_at h id 9 -. t)

let test_five_replicas_ring_acks () =
  (* n = 5: a follower and the leader are two holders of f + 1 = 3; the
     third is its ring predecessor (replica 4's for replica 1), whose ack
     lands as the leader's second does.  So every replica delivers at
     t + 0.2 ms, a hop before the leader's Commit could arrive. *)
  Alcotest.(check (list (float 1e-9)))
    "every replica two hops after the cut" (List.init 5 (fun _ -> 2e-4))
    (commit_delays 5)

let test_seven_replicas_ring_acks () =
  (* n = 7: f + 1 = 4, so each follower needs the acks of its f - 1 = 2
     ring predecessors, both sent as they accept, at t + 0.1 ms. *)
  Alcotest.(check (list (float 1e-9)))
    "every replica two hops after the cut" (List.init 7 (fun _ -> 2e-4))
    (commit_delays 7)

let test_lost_ring_ack_falls_back_to_commit () =
  (* n = 5 with the 1 -> 2 link down: replica 2 never hears its ring
     predecessor and delivers on the leader's eager Commit, sent as the
     leader commits at t + 0.2 ms; the others are unaffected. *)
  Alcotest.(check (list (float 1e-9)))
    "replica 2 on the leader's Commit" [ 2e-4; 2e-4; 3e-4; 2e-4; 2e-4 ]
    (commit_delays ~link:(fun ~src ~dst -> not (src = 1 && dst = 2)) 5)

let test_accepted_batch_survives_leader_crash () =
  (* Block every message to the leader, so no ack reaches it, and crash
     it: its one batch committed only at the followers, which delivered it
     on acceptance.  The view change must keep it, at the same seq, ahead
     of what the new leader orders next. *)
  let h =
    Harness.make
      ~submit:(fun () -> [ (0.001, 0, [ 7 ]); (0.3, 1, [ 8 ]) ])
      ()
  in
  h.partition (fun ~src ~dst -> dst <> 0 || src = 0);
  h.run_until 0.01;
  Alcotest.(check (list (list int))) "the leader never committed" []
    (Harness.batches h 0);
  Alcotest.(check (list (list int))) "replica 1 delivered on acceptance"
    [ [ 7 ] ] (Harness.batches h 1);
  h.crash 0;
  h.run_until 1.0;
  Alcotest.(check bool) "a new view" true (h.views.(1) () > 0);
  Alcotest.(check (list (list int))) "replica 1: same seq, then the next"
    [ [ 7 ]; [ 8 ] ] (Harness.batches h 1);
  Alcotest.(check (list (list int))) "replica 2 identical" [ [ 7 ]; [ 8 ] ]
    (Harness.batches h 2)

let test_view_change_keeps_latest_view_log () =
  (* A longer log from an older view must not replace the latest view's.
     Replica 0 leads view 0 cut off from everyone and sequences [1; 2] and
     [3], which nobody else sees.  Replicas 1 and 2 elect view 1 and commit
     [10] at seq 0.  Then replica 1 is cut off instead, and replicas 2 and
     0 form view 2: replica 0 offers a two-entry log from view 0, replica 2
     a one-entry log from view 1.  Adopting the longer one would put [1; 2]
     at the seq where replica 2 already delivered [10]. *)
  let isolate r ~src ~dst = src = dst || (src <> r && dst <> r) in
  let h =
    Harness.make
      ~submit:(fun () ->
        [ (0.001, 0, [ 1; 2 ]); (0.0012, 0, [ 3 ]); (0.2, 1, [ 10 ]) ])
      ()
  in
  h.partition (isolate 0);
  h.run_until 0.3;
  Alcotest.(check (list int)) "view 1 committed [10]" [ 10 ]
    (Harness.delivered h 2);
  h.partition (isolate 1);
  h.run_until 0.8;
  Alcotest.(check int) "replica 2 leads view 2" 2 (h.views.(2) ());
  Alcotest.(check int) "replica 0 joined it" 2 (h.views.(0) ());
  Alcotest.(check (list int)) "replica 0 agrees with view 1's order"
    (Harness.delivered h 2) (Harness.delivered h 0);
  Alcotest.(check (list int)) "view 0's unacknowledged batches are gone"
    [ 10 ] (Harness.delivered h 2)

(* --- four batches in flight --- *)

let test_view_change_keeps_four_uncommitted () =
  (* n = 5, and only the leader's messages get through: the followers
     accept all four batches of the window but hear no ring ack, so none
     commits anywhere.  The leader crashes; the new leader re-proposes the
     whole uncommitted suffix, so the four batches commit at their seqs,
     in order, ahead of what the new view orders next. *)
  let h =
    Harness.make ~n:5
      ~submit:(fun () ->
        [
          (0.001, 0, [ 1 ]);
          (0.0011, 0, [ 2 ]);
          (0.0012, 0, [ 3 ]);
          (0.0013, 0, [ 4 ]);
          (0.3, 1, [ 5 ]);
        ])
      ()
  in
  h.partition (fun ~src ~dst -> src = 0 || src = dst);
  h.run_until 0.01;
  List.iter
    (fun id ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "replica %d delivered nothing" id)
        [] (Harness.batches h id))
    [ 0; 1; 2; 3; 4 ];
  h.crash 0;
  h.heal ();
  h.run_until 1.0;
  Alcotest.(check bool) "a new view" true (h.views.(1) () > 0);
  List.iter
    (fun id ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "replica %d: all four batches, then the next" id)
        [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 5 ] ]
        (Harness.batches h id))
    [ 1; 2; 3; 4 ]

let test_lost_first_prepare_fills_gap () =
  (* The leader's first Prepare to replica 2 is lost, and three more
     batches go out behind it.  Replica 2 accepts nothing out of order:
     each later Prepare shows it a gap and it sends [Need_log].  It
     delivers what each [Log_transfer] shows committed at the leader: batch
     1 with batch 2, three hops after batch 2's cut (the first transfer
     left as batch 2 committed), and each later batch three hops after its
     own cut, all in order. *)
  let lost = ref false in
  let drop ~src:_ ~dst msg =
    match msg with
    | Abcast.Prepare { seq = 0; _ } when dst = 2 && not !lost ->
        lost := true;
        true
    | _ -> false
  in
  let h =
    Harness.make ~drop
      ~submit:(fun () ->
        List.init 4 (fun i ->
            (0.001 +. (5e-5 *. float_of_int i), 0, [ i + 1 ])))
      ()
  in
  h.run_until 0.01;
  Alcotest.(check bool) "the Prepare was dropped" true !lost;
  let four = [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] in
  Alcotest.(check (list (list int))) "replica 1 unaffected" four
    (Harness.batches h 1);
  Alcotest.(check (list (list int))) "replica 2: all four, in order" four
    (Harness.batches h 2);
  Alcotest.(check (float 1e-9)) "batch 1 once the gap is filled"
    (Harness.cut_at h 2 +. 3e-4) (Harness.delivered_at h 2 1);
  List.iter
    (fun c ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "batch %d three hops after its cut" c)
        (Harness.cut_at h c +. 3e-4)
        (Harness.delivered_at h 2 c))
    [ 2; 3; 4 ]

let test_five_replicas_two_in_flight_two_hops () =
  (* n = 5 with two batches in flight: the window does not delay the
     commit rule, so every replica delivers each batch two hops after its
     own cut, batch 2 while batch 1 is still uncommitted. *)
  let h =
    Harness.make ~n:5
      ~submit:(fun () -> [ (0.001, 0, [ 1 ]); (0.00105, 0, [ 2 ]) ])
      ()
  in
  h.run_until 0.01;
  Alcotest.(check (float 1e-9)) "batch 2 cut on submission" 0.00105
    (Harness.cut_at h 2);
  List.iter
    (fun c ->
      Alcotest.(check (list (float 1e-9)))
        (Printf.sprintf "batch %d: every replica two hops after the cut" c)
        (List.init 5 (fun _ -> 2e-4))
        (List.init 5 (fun id -> Harness.delivered_at h id c -. Harness.cut_at h c)))
    [ 1; 2 ]

let test_no_quorum_no_delivery () =
  (* Crash both followers: the leader alone (1 of 3 < f+1 = 2) must not
     commit anything. *)
  let h = Harness.make ~submit:(fun () -> [ (0.005, 0, [ 7 ]) ]) () in
  h.crash 1;
  h.crash 2;
  h.run_until 0.3;
  Alcotest.(check (list int)) "nothing committed" [] (Harness.delivered h 0)

let test_view_change_on_leader_crash () =
  let h = Harness.make ~submit:(fun () -> [ (0.2, 1, [ 5 ]) ]) () in
  (* Let view 0 settle, then kill the leader before the submission. *)
  h.run_until 0.05;
  h.crash 0;
  h.run_until 1.0;
  Alcotest.(check bool) "replica 1 moved to a later view" true (h.views.(1) () > 0);
  Alcotest.(check bool) "replicas agree on view" true (h.views.(1) () = h.views.(2) ());
  Alcotest.(check (list int)) "command ordered by new leader" [ 5 ]
    (Harness.delivered h 1);
  Alcotest.(check (list int)) "both survivors deliver" [ 5 ]
    (Harness.delivered h 2)

let test_uncommitted_survive_view_change () =
  (* Commands committed in view 0 are preserved across a view change. *)
  let h = Harness.make ~submit:(fun () -> [ (0.001, 0, [ 1; 2; 3 ]) ]) () in
  h.run_until 0.05;
  (* committed in view 0 *)
  h.crash 0;
  let h2_submit = [ 4; 5 ] in
  ignore h2_submit;
  h.run_until 1.0;
  Alcotest.(check (list int)) "prefix preserved at replica 1" [ 1; 2; 3 ]
    (Harness.delivered h 1);
  Alcotest.(check (list int)) "prefix preserved at replica 2" [ 1; 2; 3 ]
    (Harness.delivered h 2)

let test_delivery_after_view_change_continues () =
  let h =
    Harness.make
      ~submit:(fun () -> [ (0.001, 0, [ 1 ]); (0.5, 1, [ 2 ]); (0.6, 2, [ 3 ]) ])
      ()
  in
  h.run_until 0.05;
  h.crash 0;
  h.run_until 2.0;
  Alcotest.(check (list int)) "old and new commands, one order" [ 1; 2; 3 ]
    (Harness.delivered h 1);
  Alcotest.(check (list int)) "identical at replica 2" [ 1; 2; 3 ]
    (Harness.delivered h 2)

(* --- checkpointing and log truncation --- *)

let test_log_truncation_bounds_memory () =
  (* 200 single-command batches with checkpoint interval 16: by the end,
     every replica must have truncated most of its log. *)
  let submits =
    List.init 200 (fun i -> (0.001 +. (0.002 *. float_of_int i), 0, [ i ]))
  in
  let h = Harness.make ~submit:(fun () -> submits) () in
  h.run_until 2.0;
  for id = 0 to 2 do
    let base, len = h.log_info.(id) () in
    if base < 150 then
      Alcotest.failf "replica %d: base %d too low (log never truncated)" id base;
    if len > 64 then Alcotest.failf "replica %d: log length %d unbounded" id len
  done;
  (* Truncation must not have disturbed delivery. *)
  let d0 = Harness.delivered h 0 in
  Alcotest.(check int) "all delivered" 200 (List.length d0);
  Alcotest.(check (list int)) "replica1 identical" d0 (Harness.delivered h 1)

let test_view_change_after_truncation () =
  (* Commit and truncate, then crash the leader: the survivors must agree
     on a view and keep making progress from their truncated logs. *)
  let submits =
    List.init 100 (fun i -> (0.001 +. (0.002 *. float_of_int i), 0, [ i ]))
    @ [ (1.0, 1, [ 1000 ]) ]
  in
  let h = Harness.make ~submit:(fun () -> submits) () in
  h.run_until 0.5;
  let base1, _ = h.log_info.(1) () in
  Alcotest.(check bool) "truncated before crash" true (base1 > 0);
  h.crash 0;
  h.run_until 3.0;
  let d1 = Harness.delivered h 1 in
  Alcotest.(check int) "all 101 delivered" 101 (List.length d1);
  Alcotest.(check (list int)) "survivors identical" d1 (Harness.delivered h 2);
  Alcotest.(check bool) "post-crash command included" true
    (List.mem 1000 d1)

let test_gap_recovery_via_log_transfer () =
  (* Partition replica 2 away from the leader while traffic flows, then
     heal: replica 2 discovers the gap from a later Prepare and catches up
     through Need_log / Log_transfer.  Checkpointing is disabled so the gap
     stays recoverable from peers' logs (a truncated-past gap needs service
     snapshots, out of the crash-stop scope — see the stall test below). *)
  let submits =
    List.init 60 (fun i -> (0.001 +. (0.005 *. float_of_int i), 0, [ i ]))
  in
  let h =
    Harness.make
      ~config:{ Harness.config with checkpoint_interval = 0 }
      ~submit:(fun () -> submits)
      ()
  in
  h.run_until 0.05;
  (* Cut only leader -> replica 2 for a while (one-directional loss). *)
  h.partition (fun ~src ~dst -> not (src = 0 && dst = 2));
  h.run_until 0.2;
  h.heal ();
  h.run_until 2.0;
  let d0 = Harness.delivered h 0 in
  Alcotest.(check int) "all delivered at leader" 60 (List.length d0);
  Alcotest.(check (list int)) "replica 2 caught up" d0 (Harness.delivered h 2)

(* The abcast log lines containing [needle] while [f] runs, counted
   through a capturing reporter at info level. *)
let count_abcast_lines needle f =
  let count = ref 0 in
  let contains line =
    let n = String.length needle and l = String.length line in
    let rec at i = i + n <= l && (String.sub line i n = needle || at (i + 1)) in
    at 0
  in
  let reporter =
    {
      Logs.report =
        (fun src _level ~over k msgf ->
          if Logs.Src.equal src Abcast.log_src then
            msgf (fun ?header:_ ?tags:_ fmt ->
                Format.kasprintf
                  (fun line ->
                    if contains line then incr count;
                    over ();
                    k ())
                  fmt)
          else begin
            over ();
            k ()
          end);
    }
  in
  let old_reporter = Logs.reporter () in
  let old_level = Logs.Src.level Abcast.log_src in
  Logs.set_reporter reporter;
  Logs.Src.set_level Abcast.log_src (Some Logs.Info);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter old_reporter;
      Logs.Src.set_level Abcast.log_src old_level)
    f;
  !count

let test_deposed_leader_rejoins () =
  (* Cut leader 0 off both ways: replicas 1 and 2 install a new view
     without it, and its Start_view never arrives.  Replica 0 stays leader
     of view 0 and orders a command nobody acknowledges.  After the heal
     it hears the new view's heartbeats, fetches that view's log past its
     commit point (dropping its uncommitted batch) and delivers what the
     new view ordered.  Adopting view 1 restarts its failure detector, so
     it does not suspect the new leader and no view 2 follows.  Replicas
     1 and 2 install view 1 once each, and replica 0 adopts it without an
     install: a late [Do_view_change] reaching the new leader after its
     install is ignored. *)
  let submits =
    [ (0.001, 0, [ 1; 2 ]); (0.1, 0, [ 99 ]); (0.2, 1, [ 3 ]); (0.25, 1, [ 4 ]) ]
  in
  let h =
    Harness.make
      ~config:{ Harness.config with checkpoint_interval = 0 }
      ~submit:(fun () -> submits)
      ()
  in
  let installs =
    count_abcast_lines "installed view" (fun () ->
        h.run_until 0.05;
        h.partition (fun ~src ~dst -> src <> 0 && dst <> 0);
        h.run_until 0.3;
        h.heal ();
        h.run_until 1.0)
  in
  let d1 = Harness.delivered h 1 in
  Alcotest.(check (list int)) "the new view ordered its commands"
    [ 1; 2; 3; 4 ] d1;
  Array.iteri
    (fun r view ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d in view 1" r)
        1 (view ()))
    h.views;
  Alcotest.(check (list int)) "views installed per replica" [ 0; 1; 1 ]
    (Array.to_list (Array.map (fun installed -> installed ()) h.views_installed));
  Alcotest.(check int) "two \"installed view\" lines" 2 installs;
  Alcotest.(check (list int)) "replica 0 caught up" d1 (Harness.delivered h 0)

let test_late_do_view_change_ignored () =
  (* Leader 0 stays up but its heartbeats and proposals never arrive, so
     replicas 1 and 2 vote for view 1; replica 0 hears the votes and joins.
     Leader 1 installs view 1 on the first [Do_view_change]; the other one
     arrives after the install and must not install view 1 again (which
     would reset its acks, re-send [Start_view] and re-propose). *)
  let h =
    Harness.make
      ~drop:(fun ~src ~dst:_ msg ->
        src = 0
        && match msg with Abcast.Prepare _ | Abcast.Commit _ -> true | _ -> false)
      ~submit:(fun () -> [ (0.2, 1, [ 7 ]) ])
      ()
  in
  let installs = count_abcast_lines "installed view" (fun () -> h.run_until 0.5) in
  Array.iteri
    (fun r view ->
      Alcotest.(check int) (Printf.sprintf "replica %d in view 1" r) 1 (view ()))
    h.views;
  Alcotest.(check (list int)) "views installed per replica" [ 1; 1; 1 ]
    (Array.to_list (Array.map (fun installed -> installed ()) h.views_installed));
  Alcotest.(check int) "three \"installed view\" lines" 3 installs;
  Alcotest.(check (list int)) "the new view orders" [ 7 ] (Harness.delivered h 0)

(* --- five replicas: f = 2 --- *)

let test_five_replicas_two_crashes () =
  (* n=5 tolerates two crashes; kill leaders of view 0 and view 1 in turn
     and keep committing. *)
  let h =
    Harness.make ~n:5
      ~submit:(fun () -> [ (0.01, 0, [ 1 ]); (0.5, 2, [ 2 ]); (1.5, 3, [ 3 ]) ])
      ()
  in
  h.run_until 0.1;
  h.crash 0;
  h.run_until 1.0;
  h.crash 1;
  h.run_until 3.0;
  let d2 = Harness.delivered h 2 in
  Alcotest.(check (list int)) "all three commands survive two crashes"
    [ 1; 2; 3 ] d2;
  Alcotest.(check (list int)) "replica 3 identical" d2 (Harness.delivered h 3);
  Alcotest.(check (list int)) "replica 4 identical" d2 (Harness.delivered h 4);
  Alcotest.(check bool) "view advanced at least twice" true (h.views.(2) () >= 2)

let test_five_replicas_three_crashes_no_progress () =
  (* Beyond f=2 the system must stop committing (but never diverge). *)
  let h =
    Harness.make ~n:5 ~submit:(fun () -> [ (0.3, 3, [ 9 ]) ]) ()
  in
  h.run_until 0.05;
  h.crash 0;
  h.crash 1;
  h.crash 2;
  h.run_until 2.0;
  Alcotest.(check (list int)) "no quorum, no delivery" []
    (Harness.delivered h 3);
  Alcotest.(check (list int)) "replica 4 agrees" [] (Harness.delivered h 4)

(* --- injected network faults: the protocol must mask loss, duplication
   and delay (exactly-once delivery in one total order) --- *)

let injected_submits n = List.init n (fun i -> (0.001 +. (0.004 *. float_of_int i), 0, [ i ]))

let check_exactly_once_identical h ~n ~replicas =
  let d0 = Harness.delivered h 0 in
  Alcotest.(check (list int)) "every command exactly once"
    (List.init n Fun.id) (List.sort compare d0);
  for id = 1 to replicas - 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "replica %d identical" id)
      d0 (Harness.delivered h id)
  done

let test_injected_loss_retransmit () =
  (* 20% of every message (Prepares, Acks, heartbeats, ticks) is dropped;
     heartbeat-driven gap recovery must still deliver everything, exactly
     once, in one order. *)
  let h =
    Harness.make
      ~faults:(Psmr_fault.Schedule.parse_exn "seed=21,net-loss=20")
      ~submit:(fun () -> injected_submits 20)
      ()
  in
  h.run_until 8.0;
  check_exactly_once_identical h ~n:20 ~replicas:3

let test_injected_duplication_dedup () =
  (* Every message delivered twice: commit bookkeeping must deduplicate —
     acks are idempotent, delivery fires once per committed entry. *)
  let h =
    Harness.make
      ~faults:(Psmr_fault.Schedule.parse_exn "seed=22,net-dup=100")
      ~submit:(fun () -> injected_submits 20)
      ()
  in
  h.run_until 3.0;
  check_exactly_once_identical h ~n:20 ~replicas:3

let test_injected_delay_keeps_order () =
  (* A uniform extra delay on every message shifts the run but cannot
     reorder deliveries or lose commands. *)
  let h =
    Harness.make
      ~faults:(Psmr_fault.Schedule.parse_exn "seed=23,net-delay=100:0.002")
      ~submit:(fun () -> injected_submits 20)
      ()
  in
  h.run_until 5.0;
  check_exactly_once_identical h ~n:20 ~replicas:3;
  Alcotest.(check (list int)) "submission order preserved"
    (List.init 20 Fun.id) (Harness.delivered h 0)

let test_broadcast_zero_perturbation () =
  (* An armed-but-empty plan must leave the protocol run bit-identical:
     same deliveries and the same number of simulation events. *)
  let scenario faults =
    let h = Harness.make ?faults ~submit:(fun () -> injected_submits 20) () in
    h.run_until 2.0;
    ( List.init 3 (Harness.delivered h),
      Psmr_sim.Engine.events_executed h.Harness.engine )
  in
  let reference = scenario None in
  let armed = scenario (Some (Psmr_fault.Schedule.parse_exn "seed=123")) in
  Alcotest.(check bool) "bit-identical deliveries and event count" true
    (reference = armed)

let test_injected_loss_cut_capped () =
  (* 1% loss under steady load, long enough (10 000 commands) that some
     batch loses both acknowledgements.  Every command is still delivered
     exactly once in one order, and however long a lost message holds a
     batch uncommitted (until a heartbeat re-proposes it), none waits for
     that to be cut: the age cap cuts the batch behind it on the first
     tick past [batch_delay], so a command waits at most [batch_delay]
     plus one tick interval.  The assertion is tighter, [batch_delay]
     plus one link round trip: where the held batches of this run fall
     against the 1 ms ticks, the worst wait is 1.05 ms.  Checkpointing is
     off, as in the log-transfer test above: a follower's gap can
     otherwise fall below the quorum-stable truncation point, which only
     a service snapshot bridges (the state-transfer test in
     test_replica). *)
  let n = 10_000 in
  let at i = 0.001 +. (1.5e-4 *. float_of_int i) in
  let h =
    Harness.make
      ~config:{ Harness.config with checkpoint_interval = 0 }
      ~faults:(Psmr_fault.Schedule.parse_exn "seed=24,net-loss=1")
      ~submit:(fun () -> List.init n (fun i -> (at i, 0, [ i ])))
      ()
  in
  h.run_until 2.0;
  check_exactly_once_identical h ~n ~replicas:3;
  Alcotest.(check (list int)) "submission order preserved"
    (List.init n Fun.id) (Harness.delivered h 0);
  let bound = Harness.config.batch_delay +. 2e-4 in
  let worst_cut = ref 0.0 in
  for i = 0 to n - 1 do
    worst_cut := Float.max !worst_cut (Harness.cut_at h i -. at i)
  done;
  if !worst_cut > bound then
    Alcotest.failf "a command waited %.3f ms to be cut (bound %.3f ms)"
      (!worst_cut *. 1e3) (bound *. 1e3);
  (* Without loss no cut waits longer than the round trip that commits the
     batch ahead of it; here some batch was held, so the cap cut it. *)
  Alcotest.(check bool) "a held batch made the cap cut" true
    (!worst_cut > 2e-4)

(* Property: crash the current leader at a random time while random
   submissions flow; all surviving replicas must deliver identical sequences
   with no duplicates (safety under failover).  With n = 5 the survivors
   commit on ring acks from their peers, so the crash also lands between
   a follower's commit and the leader's. *)
let prop_safety_under_leader_crash ?(n = 3) name =
  QCheck.Test.make ~name ~count:20
    QCheck.(
      pair (int_range 10 800)
        (list_of_size Gen.(int_range 1 25)
           (pair (int_range 1 (n - 1)) (int_range 0 1200))))
    (fun (crash_ms, submissions) ->
      (* Submissions go to replicas 1..n-1 so they survive the crash of 0. *)
      let submits =
        List.mapi
          (fun i (replica, at_ms) ->
            (0.001 +. (float_of_int at_ms /. 1000.0), replica, [ i ]))
          submissions
      in
      let h = Harness.make ~n ~submit:(fun () -> submits) () in
      h.run_until (float_of_int crash_ms /. 1000.0);
      h.crash 0;
      h.run_until 5.0;
      let d1 = Harness.delivered h 1 in
      let no_dups l = List.length (List.sort_uniq compare l) = List.length l in
      List.for_all (fun id -> Harness.delivered h id = d1) (List.init (n - 1) succ)
      && no_dups d1
      (* prefix-of check against submissions is implied by integrity: *)
      && List.for_all (fun c -> c >= 0 && c < List.length submissions) d1)

(* Property: under random submission times and different latencies, all
   replicas deliver identical sequences (uniform total order + integrity). *)
let prop_total_order ?(n = 3) name =
  QCheck.Test.make ~name ~count:25
    QCheck.(
      pair (int_range 0 1000)
        (list_of_size Gen.(int_range 1 30)
           (pair (int_range 0 (n - 1)) (int_range 0 400))))
    (fun (lat_us, submissions) ->
      let submits =
        List.mapi
          (fun i (replica, at_ms) ->
            (0.001 +. (float_of_int at_ms /. 1000.0), replica, [ i ]))
          submissions
      in
      let h =
        Harness.make ~n
          ~latency:(float_of_int lat_us *. 1e-6)
          ~submit:(fun () -> submits)
          ()
      in
      h.run_until 3.0;
      let d0 = Harness.delivered h 0 in
      let sorted = List.sort compare d0 in
      let expected = List.sort compare (List.init (List.length submissions) Fun.id) in
      List.for_all (fun id -> Harness.delivered h id = d0) (List.init (n - 1) succ)
      && sorted = expected (* integrity: each exactly once, none lost *))

let () =
  Alcotest.run "broadcast"
    [
      ( "ordering",
        [
          Alcotest.test_case "basic total order" `Quick test_total_order_basic;
          Alcotest.test_case "follower forwards" `Quick test_submit_via_follower_forwards;
          Alcotest.test_case "many batches" `Quick test_many_batches_total_order;
        ] );
      ( "batching",
        [
          Alcotest.test_case "by size" `Quick test_batching_by_size;
          Alcotest.test_case "by delay" `Quick test_batching_by_delay;
          Alcotest.test_case "idle cut" `Quick test_batching_idle_cut;
          Alcotest.test_case "in-flight accumulation" `Quick
            test_batching_in_flight_accumulates;
          Alcotest.test_case "the fifth batch waits for batch 1's commit"
            `Quick test_batching_fifth_waits_for_first_commit;
          Alcotest.test_case "delay cap on slow links" `Quick
            test_batching_delay_cap_slow_links;
        ] );
      ( "fault-tolerance",
        [
          Alcotest.test_case "no quorum, no delivery" `Quick test_no_quorum_no_delivery;
          Alcotest.test_case "view change on leader crash" `Quick
            test_view_change_on_leader_crash;
          Alcotest.test_case "committed prefix survives" `Quick
            test_uncommitted_survive_view_change;
          Alcotest.test_case "progress after view change" `Quick
            test_delivery_after_view_change_continues;
          Alcotest.test_case "accepted batch survives the leader" `Quick
            test_accepted_batch_survives_leader_crash;
          Alcotest.test_case "view change keeps the latest view's log"
            `Quick test_view_change_keeps_latest_view_log;
          Alcotest.test_case "view change keeps four uncommitted batches"
            `Quick test_view_change_keeps_four_uncommitted;
          Alcotest.test_case "late Do_view_change installs nothing" `Quick
            test_late_do_view_change_ignored;
          Alcotest.test_case "lost first Prepare waits for Need_log" `Quick
            test_lost_first_prepare_fills_gap;
          Alcotest.test_case "n = 5: two in flight, each two hops" `Quick
            test_five_replicas_two_in_flight_two_hops;
          QCheck_alcotest.to_alcotest
            (prop_safety_under_leader_crash ~n:5
               "n = 5: identical delivery despite random leader crash");
        ] );
      ( "commit-rule",
        [
          Alcotest.test_case "n = 3: followers commit on acceptance" `Quick
            test_three_replicas_follower_commits_on_accept;
          Alcotest.test_case "n = 5: followers commit on ring acks" `Quick
            test_five_replicas_ring_acks;
          Alcotest.test_case "n = 7: followers commit on ring acks" `Quick
            test_seven_replicas_ring_acks;
          Alcotest.test_case "lost ring ack falls back to the leader's Commit"
            `Quick test_lost_ring_ack_falls_back_to_commit;
        ] );
      ( "checkpointing",
        [
          Alcotest.test_case "truncation bounds the log" `Quick
            test_log_truncation_bounds_memory;
          Alcotest.test_case "view change after truncation" `Quick
            test_view_change_after_truncation;
          Alcotest.test_case "gap recovery via log transfer" `Quick
            test_gap_recovery_via_log_transfer;
          Alcotest.test_case "deposed leader rejoins the next view" `Quick
            test_deposed_leader_rejoins;
        ] );
      ( "injected-faults",
        [
          Alcotest.test_case "loss masked by retransmission" `Quick
            test_injected_loss_retransmit;
          Alcotest.test_case "duplication deduplicated" `Quick
            test_injected_duplication_dedup;
          Alcotest.test_case "delay preserves order" `Quick
            test_injected_delay_keeps_order;
          Alcotest.test_case "empty plan is zero perturbation" `Quick
            test_broadcast_zero_perturbation;
          Alcotest.test_case "loss never holds a cut" `Quick
            test_injected_loss_cut_capped;
        ] );
      ( "five-replicas",
        [
          Alcotest.test_case "two crashes tolerated" `Quick
            test_five_replicas_two_crashes;
          Alcotest.test_case "three crashes stop progress" `Quick
            test_five_replicas_three_crashes_no_progress;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest
            (prop_total_order "replicas deliver identical sequences");
          QCheck_alcotest.to_alcotest
            (prop_safety_under_leader_crash
               "identical delivery despite random leader crash");
          QCheck_alcotest.to_alcotest
            (prop_total_order ~n:5 "n = 5: replicas deliver identical sequences");
        ] );
    ]
