(* Partitioned atomic broadcast: Pmerge unit and property tests, the
   partitioned replica deployments (cross-partition transfers, sequencer
   crash recovery), the partitions=1 regression against the single-abcast
   delivery order, and the golden merged-order traces. *)

module Pmerge = Psmr_broadcast.Pmerge

(* --- Pmerge unit helpers --- *)

(* A tiny command universe: commands are ints; [touched] maps a command to
   its ascending touched-partition array. *)
type mcmd = { cid : int; touched : int array }

let entry_of c =
  if Array.length c.touched = 1 then Pmerge.Single c
  else Pmerge.Cross { uid = c.cid; parts = c.touched; cmd = c }

(* Build the per-partition streams from per-partition command orders. *)
let streams_of (orders : mcmd list array) =
  Array.map (fun cs -> List.map entry_of cs) orders

(* Push every remaining entry, choosing the next stream with [pick]
   (invoked with the list of nonempty stream indices). *)
let run_interleaving ?(no_barrier = false) ~partitions ~orders pick =
  let out = ref [] in
  let t =
    Pmerge.create ~no_barrier ~partitions ~emit:(fun e -> out := e :: !out) ()
  in
  let rem = Array.map ref (streams_of orders) in
  let rec loop () =
    let nonempty =
      List.filter (fun p -> !(rem.(p)) <> []) (List.init partitions Fun.id)
    in
    match nonempty with
    | [] -> ()
    | ps ->
        let p = pick ps in
        (match !(rem.(p)) with
        | e :: tl ->
            rem.(p) := tl;
            Pmerge.push t ~part:p e
        | [] -> assert false);
        loop ()
  in
  loop ();
  (t, List.rev !out)

let emitted_cids out = List.map (fun (e : mcmd Pmerge.emitted) -> e.cmd.cid) out

(* The SMR-relevant projection: commands touching partition [p], in
   emission order.  Replicas must agree on this for every p; the full
   interleaving across unrelated partitions is allowed to differ. *)
let projection out p =
  List.filter_map
    (fun (e : mcmd Pmerge.emitted) ->
      if Array.exists (fun q -> q = p) e.cmd.touched then Some e.cmd.cid
      else None)
    out

let single p cid = { cid; touched = [| p |] }
let cross parts cid = { cid; touched = parts }

(* --- unit tests --- *)

let test_singles_passthrough () =
  let orders = [| [ single 0 0; single 0 1 ]; [ single 1 2 ] |] in
  let t, out = run_interleaving ~partitions:2 ~orders List.hd in
  Alcotest.(check (list int)) "all emitted in stream order" [ 0; 1; 2 ]
    (emitted_cids out);
  Alcotest.(check int) "nothing pending" 0 (Pmerge.pending t);
  Alcotest.(check int) "no crosses" 0 (Pmerge.crosses t);
  Alcotest.(check int) "streams counted" 2 (Pmerge.pushed t ~part:0)

let test_rendezvous_waits_for_all_streams () =
  (* X touches {0,1}; a single ahead of it in stream 1 must emit first even
     when X's stream-0 copy arrives long before. *)
  let x = cross [| 0; 1 |] 7 in
  let orders = [| [ x ]; [ single 1 1; x ] |] in
  (* Arrival: X@0 first, then stream 1 entirely. *)
  let t, out = run_interleaving ~partitions:2 ~orders List.hd in
  Alcotest.(check (list int)) "single before the rendezvous" [ 1; 7 ]
    (emitted_cids out);
  Alcotest.(check int) "one cross" 1 (Pmerge.crosses t);
  Alcotest.(check int) "no tie-breaks" 0 (Pmerge.holes t);
  let em = List.nth out 1 in
  Alcotest.(check int) "attributed to designated partition" 0 em.Pmerge.part;
  Alcotest.(check bool) "flagged cross" true em.Pmerge.cross

let all_interleavings ~partitions ~orders =
  (* Enumerate every arrival interleaving (small cases only). *)
  let rec go rem acc =
    let nonempty =
      List.filter (fun p -> List.nth rem p <> []) (List.init partitions Fun.id)
    in
    if nonempty = [] then [ List.rev acc ]
    else
      List.concat_map
        (fun p ->
          let rem' =
            List.mapi (fun q l -> if q = p then List.tl l else l) rem
          in
          go rem' (p :: acc))
        nonempty
  in
  go (Array.to_list (Array.map (fun l -> l) orders)) []
  |> List.map (fun choice ->
         let i = ref (-1) in
         run_interleaving ~partitions ~orders (fun _ ->
             incr i;
             List.nth choice !i))

let test_cycle_tiebreak_deterministic () =
  (* Streams order two {0,1} crosses inconsistently: a genuine wedge.  All
     6 arrival interleavings must agree on the emission order, break the
     cycle exactly once, and leave nothing pending. *)
  let x = cross [| 0; 1 |] 0 and y = cross [| 0; 1 |] 1 in
  let orders = [| [ x; y ]; [ y; x ] |] in
  let runs = all_interleavings ~partitions:2 ~orders in
  Alcotest.(check int) "6 interleavings" 6 (List.length runs);
  let reference = emitted_cids (snd (List.hd runs)) in
  (* ts(x) = ts(y) = 1; uid breaks the tie in favour of x = 0. *)
  Alcotest.(check (list int)) "victim is the smallest uid" [ 0; 1 ] reference;
  List.iter
    (fun (t, out) ->
      Alcotest.(check (list int)) "same order" reference (emitted_cids out);
      Alcotest.(check int) "one tie-break" 1 (Pmerge.holes t);
      Alcotest.(check int) "drained" 0 (Pmerge.pending t))
    runs

let test_no_barrier_is_arrival_dependent () =
  (* The planted bug: with the rendezvous skipped, the same streams produce
     different partition-1 projections under different arrivals. *)
  let a = cross [| 0; 1 |] 0 in
  let orders = [| [ a ]; [ single 1 1; a ] |] in
  let _, out_a0 =
    run_interleaving ~no_barrier:true ~partitions:2 ~orders List.hd
  in
  let _, out_b0 =
    run_interleaving ~no_barrier:true ~partitions:2 ~orders (fun ps ->
        List.nth ps (List.length ps - 1))
  in
  Alcotest.(check bool) "projections diverge" true
    (projection out_a0 1 <> projection out_b0 1);
  (* The sound merge agrees on both interleavings. *)
  let _, sa = run_interleaving ~partitions:2 ~orders List.hd in
  let _, sb =
    run_interleaving ~partitions:2 ~orders (fun ps ->
        List.nth ps (List.length ps - 1))
  in
  Alcotest.(check (list int)) "sound merge agrees" (projection sa 1)
    (projection sb 1)

let test_push_validation () =
  let t = Pmerge.create ~partitions:2 ~emit:(fun _ -> ()) () in
  Alcotest.check_raises "cross must touch >= 2"
    (Invalid_argument "Pmerge.push: cross entry must touch >= 2 partitions")
    (fun () ->
      Pmerge.push t ~part:0 (Pmerge.Cross { uid = 0; parts = [| 0 |]; cmd = 0 }));
  Alcotest.check_raises "part range" (Invalid_argument "Pmerge.push")
    (fun () -> Pmerge.push t ~part:2 (Pmerge.Single 0))

(* --- qcheck: arrival-interleaving determinism of the sound merge --- *)

(* One random scenario: P partitions, K commands with a given cross ratio,
   independently shuffled per-partition sequencer orders (inconsistent
   cross orders arise naturally), compared across random arrival
   interleavings. *)
let gen_scenario =
  QCheck.Gen.(
    let* partitions = int_range 2 4 in
    let* k = int_range 10 40 in
    let* cross_pct = oneofl [ 0; 10; 50; 100 ] in
    let* seed = int_bound 1_000_000 in
    return (partitions, k, cross_pct, seed))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let build_orders ~partitions ~k ~cross_pct rng =
  let cmds =
    List.init k (fun cid ->
        if Random.State.int rng 100 < cross_pct then begin
          (* A random subset of 2..partitions partitions, ascending. *)
          let size = 2 + Random.State.int rng (partitions - 1) in
          let all = shuffle rng (List.init partitions Fun.id) in
          let parts =
            List.filteri (fun i _ -> i < size) all |> List.sort compare
          in
          cross (Array.of_list parts) cid
        end
        else single (Random.State.int rng partitions) cid)
  in
  Array.init partitions (fun p ->
      shuffle rng
        (List.filter (fun c -> Array.exists (fun q -> q = p) c.touched) cmds))

let random_pick rng ps = List.nth ps (Random.State.int rng (List.length ps))

let prop_merge_deterministic (partitions, k, cross_pct, seed) =
  let rng = Random.State.make [| seed |] in
  let orders = build_orders ~partitions ~k ~cross_pct rng in
  let runs =
    List.init 6 (fun i ->
        let arng = Random.State.make [| seed; i |] in
        run_interleaving ~partitions ~orders (random_pick arng))
  in
  let _, ref_out = List.hd runs in
  let total = List.length (emitted_cids ref_out) in
  total = k
  && List.for_all
       (fun (t, out) ->
         Pmerge.pending t = 0
         && List.length (emitted_cids out) = k
         && List.sort compare (emitted_cids out) = List.init k Fun.id
         && List.for_all
              (fun p -> projection out p = projection ref_out p)
              (List.init partitions Fun.id))
       runs

let qcheck_merge_deterministic =
  QCheck.Test.make ~count:300 ~name:"pmerge: per-partition projections agree"
    (QCheck.make gen_scenario) prop_merge_deterministic

(* All-cross burst: every command touches >= 2 partitions; the merge must
   still drain (no deadlock) and agree across arrivals. *)
let qcheck_all_cross_drains =
  QCheck.Test.make ~count:150 ~name:"pmerge: 100% cross bursts drain"
    (QCheck.make
       QCheck.Gen.(
         let* partitions = int_range 2 4 in
         let* k = int_range 5 25 in
         let* seed = int_bound 1_000_000 in
         return (partitions, k, 100, seed)))
    prop_merge_deterministic

let test_rotational_wedge_regression () =
  (* Regression for a bug found while developing the merge: three crosses
     all touching {0,1,2}, rotationally wedged (streams 1,2,0 / 2,0,1 /
     0,1,2).  Breaking a partially seen sub-cycle let the victim depend on
     arrival order (some interleavings broke {1,2} and emitted 1 before 0);
     breaking only a closed wedge picks victim 0 everywhere. *)
  let c cid = cross [| 0; 1; 2 |] cid in
  let orders =
    [| [ c 1; c 2; c 0 ]; [ c 2; c 0; c 1 ]; [ c 0; c 1; c 2 ] |]
  in
  let runs = all_interleavings ~partitions:3 ~orders in
  List.iter
    (fun (t, out) ->
      Alcotest.(check (list int)) "canonical victim order" [ 0; 1; 2 ]
        (emitted_cids out);
      Alcotest.(check int) "drained" 0 (Pmerge.pending t))
    runs

let test_shared_stream_wedges_regression () =
  (* Regression: two wedges that share streams.  Streams 0 and 3 wedge 1
     and 3 between themselves; 0 and 2 also wedge each other in streams 1
     and 2, but wait behind 1 and 3 in streams 0 and 3.  Breaking the
     smallest key over every complete cycle made the first victim depend on
     whether streams 1 and 2 had arrived yet (3 if not, 2 if so).  Only a
     wedge that waits on nothing outside itself is broken, so the victim is
     3 under every arrival order. *)
  let all = [| 0; 1; 2; 3 |] and c03 = [| 0; 3 |] in
  let orders =
    [|
      [ cross c03 1; cross all 2; cross c03 3; cross all 0 ];
      [ cross all 0; cross all 2 ];
      [ cross all 2; cross all 0 ];
      [ cross c03 3; cross all 2; cross all 0; cross c03 1 ];
    |]
  in
  let streams_0_3_first ps =
    if List.mem 0 ps then 0 else if List.mem 3 ps then 3 else List.hd ps
  in
  let rng = Random.State.make [| 8874 |] in
  let runs =
    run_interleaving ~partitions:4 ~orders List.hd
    :: run_interleaving ~partitions:4 ~orders streams_0_3_first
    :: List.init 200 (fun _ ->
           run_interleaving ~partitions:4 ~orders (random_pick rng))
  in
  List.iter
    (fun (t, out) ->
      Alcotest.(check (list int)) "canonical victim order" [ 3; 2; 0; 1 ]
        (emitted_cids out);
      Alcotest.(check int) "three tie-breaks" 3 (Pmerge.holes t);
      Alcotest.(check int) "drained" 0 (Pmerge.pending t))
    runs

(* Long run over one merge: 2000 windows of 16 commands, 90% cross, each
   window's stream orders shuffled independently (wedges and holes) and
   pushed in a random arrival interleaving.  The emitted-cross memory
   holds only uids with occurrences still to skip, so it never exceeds a
   window's commands and is empty at every window boundary — before it
   was bounded, it ended holding every cross ever emitted. *)
let test_emitted_cross_bounded () =
  let partitions = 4 and window = 16 and windows = 2000 in
  List.iter
    (fun no_barrier ->
      let rng = Random.State.make [| 17 |] in
      let emitted = ref 0 and crosses = ref 0 and peak = ref 0 in
      let t =
        Pmerge.create ~no_barrier ~partitions ~emit:(fun _ -> incr emitted) ()
      in
      for w = 0 to windows - 1 do
        let orders =
          build_orders ~partitions ~k:window ~cross_pct:90 rng
          |> Array.map
               (List.map (fun c -> { c with cid = (w * window) + c.cid }))
        in
        let rem = Array.map (fun cs -> ref (List.map entry_of cs)) orders in
        let rec loop () =
          match
            List.filter (fun p -> !(rem.(p)) <> []) (List.init partitions Fun.id)
          with
          | [] -> ()
          | ps ->
              let p = random_pick rng ps in
              (match !(rem.(p)) with
              | e :: tl ->
                  rem.(p) := tl;
                  Pmerge.push t ~part:p e
              | [] -> assert false);
              peak := max !peak (Pmerge.emitted_live t);
              loop ()
        in
        loop ();
        crosses := Pmerge.crosses t;
        Alcotest.(check int) "window boundary: nothing remembered" 0
          (Pmerge.emitted_live t)
      done;
      if not no_barrier then
        Alcotest.(check int) "every command emitted" (window * windows)
          !emitted;
      Alcotest.(check bool) "a cross-heavy run" true
        (!crosses > window * windows / 2);
      Alcotest.(check bool)
        (Printf.sprintf "peak %d within one window" !peak)
        true (!peak <= window))
    [ false; true ]

(* --- repeated legs --- *)

(* Add repeat copies of cross entries later in their own streams: each
   cross occurrence gets 0-2 copies, each at a random position after the
   stream's first occurrence, as client resends leave them. *)
let with_repeats rng orders =
  Array.map
    (fun cs ->
      List.fold_left
        (fun acc c ->
          if Array.length c.touched < 2 then acc
          else
            let rec add acc copies =
              if copies = 0 then acc
              else
                let first =
                  Option.get (List.find_index (fun d -> d.cid = c.cid) acc)
                in
                let at =
                  first + 1 + Random.State.int rng (List.length acc - first)
                in
                add
                  (List.filteri (fun k _ -> k < at) acc
                  @ (c :: List.filteri (fun k _ -> k >= at) acc))
                  (copies - 1)
            in
            add acc (Random.State.int rng 3))
        cs cs)
    orders

(* Repeats are invisible: under any arrival interleaving, the streams with
   repeats emit every command once, drain, take the same tie-breaks and
   give the same per-partition projections as the streams without. *)
let prop_repeats_invisible (partitions, k, cross_pct, seed) =
  let rng = Random.State.make [| seed |] in
  let orders = build_orders ~partitions ~k ~cross_pct rng in
  let t0, ref_out = run_interleaving ~partitions ~orders List.hd in
  let repeated = with_repeats rng orders in
  List.for_all
    (fun i ->
      let arng = Random.State.make [| seed; i |] in
      let t, out =
        run_interleaving ~partitions ~orders:repeated (random_pick arng)
      in
      Pmerge.pending t = 0
      && List.sort compare (emitted_cids out) = List.init k Fun.id
      && Pmerge.holes t = Pmerge.holes t0
      && List.for_all
           (fun p -> projection out p = projection ref_out p)
           (List.init partitions Fun.id))
    (List.init 6 Fun.id)

let qcheck_repeats_invisible =
  QCheck.Test.make ~count:300
    ~name:"pmerge: repeated cross legs leave projections unchanged"
    (QCheck.make gen_scenario) prop_repeats_invisible

(* Within each stream, give every origin's commands its own positions in
   ascending [cid] order, as real origins deliver their first occurrences;
   different origins stay interleaved at random. *)
let ascending_per_origin ~origins cs =
  let mine o = List.filter (fun c -> c.cid mod origins = o) cs in
  let queues = Array.init origins (fun o -> ref (List.sort compare (mine o))) in
  List.map
    (fun c ->
      let q = queues.(c.cid mod origins) in
      match !q with
      | next :: rest ->
          q := rest;
          next
      | [] -> assert false)
    cs

(* Long run over one merge with client-owned uids: 3 origins, 2000 windows
   of 16 commands (90% cross, seqs rising by 16 per window, each origin's
   ascending within a stream, origins interleaved at random), every cross
   leg repeated 0-2 times later in its stream, plus a stale repeat of a
   cross from 10 windows back (160 seqs earlier) in each stream.  Every
   command is emitted once and nothing stays queued, so each repeat was
   dropped; the repeat memory holds one int per (stream, origin)
   throughout. *)
let test_repeat_memory_bounded () =
  let partitions = 4 and origins = 3 and window = 16 and windows = 2000 in
  let rng = Random.State.make [| 23 |] in
  let emitted = ref 0 and peak = ref 0 in
  let t = Pmerge.create ~partitions ~emit:(fun _ -> incr emitted) () in
  let history = Queue.create () in
  for w = 0 to windows - 1 do
    let orders =
      build_orders ~partitions ~k:window ~cross_pct:90 rng
      |> Array.map (ascending_per_origin ~origins)
      |> Array.map
           (List.map (fun c ->
                {
                  c with
                  cid =
                    Pmerge.uid ~origin:(c.cid mod origins)
                      ~seq:((w * window) + c.cid);
                }))
      |> with_repeats rng
    in
    Queue.push orders history;
    let orders =
      if Queue.length history <= 10 then orders
      else
        let old = Queue.pop history in
        Array.mapi
          (fun p cs ->
            match List.filter (fun c -> Array.length c.touched > 1) old.(p) with
            | [] -> cs
            | stale :: _ -> stale :: cs)
          orders
    in
    let rem = Array.map (fun cs -> ref (List.map entry_of cs)) orders in
    let rec loop () =
      match
        List.filter (fun p -> !(rem.(p)) <> []) (List.init partitions Fun.id)
      with
      | [] -> ()
      | ps ->
          let p = random_pick rng ps in
          (match !(rem.(p)) with
          | e :: tl ->
              rem.(p) := tl;
              Pmerge.push t ~part:p e
          | [] -> assert false);
          peak := max !peak (Pmerge.remembered_origins t);
          loop ()
    in
    loop ();
    Alcotest.(check int) "window boundary: drained" 0 (Pmerge.pending t)
  done;
  Alcotest.(check int) "every command emitted once" (window * windows)
    !emitted;
  Alcotest.(check bool)
    (Printf.sprintf "peak %d entries within streams x origins" !peak)
    true
    (!peak <= partitions * origins)

(* --- Partitioned broadcast on the simulator --- *)

(* An n-replica partitioned-broadcast harness mirroring test_broadcast's
   [Harness]: per-replica event-loop + ticker processes over the simulated
   network, submissions scheduled at virtual times.  Commands are ints;
   each submission carries its footprint. *)
module Part_sim = struct
  open Psmr_broadcast

  type t = {
    emissions : int Pmerge.emitted list ref array;
    views_installed : (unit -> int) array;
    leader : part:int -> int;  (* as replica 0 sees it *)
    crash : int -> unit;
    run_until : float -> unit;
    merge_pending : int -> int;
    crosses : int -> int;
    holes : int -> int;
  }

  let config =
    {
      Abcast.batch_max = 8;
      batch_delay = 1e-3;
      heartbeat_interval = 5e-3;
      election_timeout = 50e-3;
      checkpoint_interval = 16;
    }

  (* submit: (at, replica, footprint, cmd) list *)
  let make ?(n = 3) ?(partitions = 2) ?(latency = 1e-4) ?(submit = []) () =
    let engine = Psmr_sim.Engine.create () in
    let (module SP) = Psmr_sim.Sim_platform.make engine Psmr_sim.Costs.zero in
    let module Net = Psmr_net.Network.Make (SP) in
    let module Part = Partition.Make (SP) in
    let net = Net.create ~latency:(fun ~src:_ ~dst:_ -> latency) ~nodes:n () in
    let emissions = Array.init n (fun _ -> ref []) in
    let eps =
      Array.init n (fun id ->
          Part.create ~config ~partitions ~id ~n
            ~send:(fun dst w -> Net.send net ~src:id ~dst (`PProto w))
            ~deliver:(fun em -> emissions.(id) := em :: !(emissions.(id)))
            ())
    in
    Array.iteri
      (fun id ep ->
        Psmr_sim.Engine.spawn engine (fun () ->
            let rec loop () =
              match Net.recv net id with
              | None -> ()
              | Some { src; payload; _ } ->
                  (match payload with
                  | `PProto w -> Part.handle ep ~src w
                  | `Tick -> Part.tick ep);
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
      eps;
    List.iter
      (fun (at, replica, fp, cmd) ->
        Psmr_sim.Engine.spawn engine ~delay:at (fun () ->
            Part.submit_batch eps.(replica)
              ~footprint:(fun _ -> fp)
              [| cmd |]))
      submit;
    {
      emissions;
      views_installed = Array.map (fun ep () -> Part.views_installed ep) eps;
      leader = (fun ~part -> Part.leader eps.(0) ~part);
      crash = (fun id -> Net.crash net id);
      run_until = (fun t -> Psmr_sim.Engine.run ~until:t engine);
      merge_pending = (fun id -> Part.merge_pending eps.(id));
      crosses = (fun id -> Part.crosses eps.(id));
      holes = (fun id -> Part.holes eps.(id));
    }

  let emitted t id = List.rev !(t.emissions.(id))
  let emitted_cmds t id = List.map (fun (e : _ Pmerge.emitted) -> e.cmd) (emitted t id)
end

(* A plain single-abcast run with the same schedule, for the partitions=1
   regression: delivered command sequence per replica. *)
let run_single_abcast ~n ~latency ~submit ~until =
  let open Psmr_broadcast in
  let engine = Psmr_sim.Engine.create () in
  let (module SP) = Psmr_sim.Sim_platform.make engine Psmr_sim.Costs.zero in
  let module Net = Psmr_net.Network.Make (SP) in
  let module Ab = Abcast.Make (SP) in
  let net = Net.create ~latency:(fun ~src:_ ~dst:_ -> latency) ~nodes:n () in
  let deliveries = Array.init n (fun _ -> ref []) in
  let abs =
    Array.init n (fun id ->
        Ab.create ~config:Part_sim.config ~id ~n
          ~send:(fun dst msg -> Net.send net ~src:id ~dst (`Proto msg))
          ~deliver:(fun batch ->
            Array.iter (fun c -> deliveries.(id) := c :: !(deliveries.(id))) batch)
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
  List.iter
    (fun (at, replica, _fp, cmd) ->
      Psmr_sim.Engine.spawn engine ~delay:at (fun () ->
          Ab.submit abs.(replica) [| cmd |]))
    submit;
  Psmr_sim.Engine.run ~until engine;
  Array.map (fun d -> List.rev !d) deliveries

let test_p1_matches_single_abcast () =
  (* With one partition there is no sharding and no merging left: the
     delivered sequence must be byte-identical (same virtual-time schedule,
     same batching config) to the unpartitioned abcast's. *)
  let submit =
    List.init 25 (fun i ->
        (0.001 +. (0.003 *. float_of_int i), i mod 3, [ (i, true) ], i))
  in
  let single = run_single_abcast ~n:3 ~latency:1e-4 ~submit ~until:1.0 in
  let h = Part_sim.make ~partitions:1 ~submit () in
  h.run_until 1.0;
  for id = 0 to 2 do
    Alcotest.(check (list int))
      (Printf.sprintf "replica %d sequence identical" id)
      single.(id)
      (Part_sim.emitted_cmds h id);
    List.iter
      (fun (e : _ Pmerge.emitted) ->
        Alcotest.(check bool) "no crosses under p=1" false e.cross)
      (Part_sim.emitted h id)
  done

(* Mixed workload for the agreement tests: singles on both partitions from
   all replicas plus cross-partition commands; footprints are (key, write)
   with partition = key mod 2. *)
let mixed_submit () =
  List.concat
    (List.init 30 (fun i ->
         let at = 0.001 +. (0.002 *. float_of_int i) in
         let replica = i mod 3 in
         if i mod 5 = 0 then
           (* cross: touches keys 0 and 1 -> partitions {0,1} *)
           [ (at, replica, [ (0, true); (1, true) ], 1000 + i) ]
         else [ (at, replica, [ (i mod 2, true) ], i) ]))

let sim_projection h ~touched id p =
  List.filter
    (fun (e : int Pmerge.emitted) ->
      List.exists (fun q -> q = p) (touched e.cmd))
    (Part_sim.emitted h id)
  |> List.map (fun (e : int Pmerge.emitted) -> e.cmd)

let mixed_touched c = if c >= 1000 then [ 0; 1 ] else [ c mod 2 ]

let test_replicas_agree_on_projections () =
  let submit = mixed_submit () in
  let h = Part_sim.make ~partitions:2 ~submit () in
  h.run_until 1.0;
  let total = List.length submit in
  for id = 0 to 2 do
    let cmds = List.sort compare (Part_sim.emitted_cmds h id) in
    Alcotest.(check int)
      (Printf.sprintf "replica %d emitted all exactly once" id)
      total (List.length cmds);
    Alcotest.(check int) "merge drained" 0 (h.merge_pending id);
    Alcotest.(check bool) "crosses flowed" true (h.crosses id > 0)
  done;
  for p = 0 to 1 do
    let ref_proj = sim_projection h ~touched:mixed_touched 0 p in
    for id = 1 to 2 do
      Alcotest.(check (list int))
        (Printf.sprintf "partition %d projection: replica %d = replica 0" p id)
        ref_proj
        (sim_projection h ~touched:mixed_touched id p)
    done
  done

let test_sequencer_crash_recovers_partition () =
  (* Partition 1's leadership starts at replica 1 (leader_offset).  Crash
     it before any partition-1 traffic: the partition must elect a new
     sequencer and order the post-crash commands on both survivors, while
     partition 0 (led by replica 0) is never disturbed. *)
  let submit =
    List.init 20 (fun i ->
        (* all traffic after the 50ms election timeout has fired *)
        (0.3 +. (0.002 *. float_of_int i), 0, [ (i mod 2, true) ], i))
  in
  let h = Part_sim.make ~partitions:2 ~submit () in
  h.run_until 0.01;
  Alcotest.(check int) "partition 1 initially led by replica 1" 1
    (h.leader ~part:1);
  h.crash 1;
  h.run_until 2.0;
  Alcotest.(check bool) "a view change was installed" true
    (h.views_installed.(0) () > 0);
  Alcotest.(check bool) "partition 1 has a new leader" true
    (h.leader ~part:1 <> 1);
  let expect = List.sort compare (List.map (fun (_, _, _, c) -> c) submit) in
  List.iter
    (fun id ->
      Alcotest.(check (list int))
        (Printf.sprintf "replica %d ordered everything after the crash" id)
        expect
        (List.sort compare (Part_sim.emitted_cmds h id)))
    [ 0; 2 ];
  for p = 0 to 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "survivors agree on partition %d" p)
      (sim_projection h ~touched:(fun c -> [ c mod 2 ]) 0 p)
      (sim_projection h ~touched:(fun c -> [ c mod 2 ]) 2 p)
  done

(* One scan over three partitions through an idle 3-partition deployment
   on the simulator, zero CPU costs, every link L.  The client multicasts
   to the three leaders (L); each sequences its leg (prepare L, ack L) and
   broadcasts the commit (L), after which every replica holds all three
   legs, and the first to merge replies (L): 5L.  Routing through the home
   leader, which forwards the other legs, delays both forwarded partitions'
   commits by one L, and each forwarded leader waits for the other's: 6L.
   (With two partitions the one forwarded leader already holds the home
   commit when its own commits, so the forward costs nothing at idle.) *)
let test_cross_one_hop () =
  let l = 1e-3 in
  let engine = Psmr_sim.Engine.create () in
  let (module SP) = Psmr_sim.Sim_platform.make engine Psmr_sim.Costs.zero in
  let module Smr = Psmr_replica.Replica.Make (SP) (Psmr_app.Kv_store) in
  let d =
    Smr.Deployment.create
      {
        (Smr.Deployment.default_config
           ~make_service:(fun _ -> Psmr_app.Kv_store.create ~capacity:8)
           ())
        with
        mode = Partitioned { partitions = 3; inner = Sequential };
        latency = (fun ~src:_ ~dst:_ -> l);
      }
  in
  let elapsed = ref Float.nan in
  Psmr_sim.Engine.spawn engine (fun () ->
      Smr.Deployment.start d;
      SP.sleep 0.05;
      let c = Smr.Deployment.client d 0 in
      let t0 = SP.now () in
      match Smr.call c (Scan (0, 3)) with
      | Some _ -> elapsed := SP.now () -. t0
      | None -> ());
  Psmr_sim.Engine.run ~until:1.0 engine;
  Alcotest.(check bool)
    (Printf.sprintf "3-partition scan in %.2fL, under 6L" (!elapsed /. l))
    true
    (!elapsed < 5.5 *. l)

(* --- golden merged-order traces --- *)

(* The simulator is deterministic, so replica 0's full emission trace on a
   pinned workload is a constant; pin its digest.  A change here means the
   merge (or the sequencer protocol under it) reordered something —
   deliberate changes must re-pin and say why. *)
let render_trace ems =
  List.map
    (fun (e : int Pmerge.emitted) ->
      Printf.sprintf "p%d%s%d" e.Pmerge.part (if e.cross then "x" else "s") e.cmd)
    ems
  |> String.concat ";"

let test_golden_trace () =
  let h = Part_sim.make ~partitions:2 ~submit:(mixed_submit ()) () in
  h.run_until 1.0;
  let digest = Digest.to_hex (Digest.string (render_trace (Part_sim.emitted h 0))) in
  (* Re-pinned when Abcast gained the eager commit broadcast (leaders now
     announce an advanced commit point immediately instead of waiting for
     the next Prepare or heartbeat): follower deliveries moved earlier in
     virtual time, shifting the simulated submission/delivery interleave
     and with it the pinned trace.  Projections stayed consistent across
     replicas throughout — only the (deterministic) timing changed. *)
  Alcotest.(check string) "pinned merged-order digest"
    "18c1642d2c48fd428115e89ecf56b644" digest;
  (* Projections must digest identically on every replica, pinned or not. *)
  let proj_digest id =
    List.map
      (fun p ->
        Digest.to_hex
          (Digest.string
             (String.concat ","
                (List.map string_of_int
                   (sim_projection h ~touched:mixed_touched id p)))))
      [ 0; 1 ]
  in
  let d0 = proj_digest 0 in
  Alcotest.(check (list string)) "replica 1 projections" d0 (proj_digest 1);
  Alcotest.(check (list string)) "replica 2 projections" d0 (proj_digest 2)

(* --- partitioned replica deployments (real threads) --- *)

module RP = Psmr_platform.Real_platform
module KV_smr = Psmr_replica.Replica.Make (RP) (Psmr_app.Kv_store)
module Bank_smr = Psmr_replica.Replica.Make (RP) (Psmr_app.Bank)

let fast_abcast =
  {
    Psmr_broadcast.Abcast.batch_max = 16;
    batch_delay = 1e-3;
    heartbeat_interval = 5e-3;
    election_timeout = 100e-3;
    checkpoint_interval = 64;
  }

let kv_deployment ?(clients = 2) ~mode () =
  let services = Array.make 3 None in
  let make_service id =
    let s = Psmr_app.Kv_store.create ~capacity:64 in
    services.(id) <- Some s;
    s
  in
  let cfg =
    {
      (KV_smr.Deployment.default_config ~make_service ()) with
      clients;
      mode;
      abcast = fast_abcast;
      tick_interval = 1e-3;
      client_timeout = 0.4;
    }
  in
  let d = KV_smr.Deployment.create cfg in
  KV_smr.Deployment.start d;
  (d, services)

let test_part_kv_roundtrip inner () =
  let d, _ =
    kv_deployment ~mode:(Partitioned { partitions = 2; inner }) ()
  in
  let c = KV_smr.Deployment.client d 0 in
  Alcotest.(check bool) "put p0" true (KV_smr.call c (Put (2, 10)) = Some Stored);
  Alcotest.(check bool) "put p1" true (KV_smr.call c (Put (3, 11)) = Some Stored);
  Alcotest.(check bool) "get p0" true
    (KV_smr.call c (Get 2) = Some (Value (Some 10)));
  Alcotest.(check bool) "get p1" true
    (KV_smr.call c (Get 3) = Some (Value (Some 11)));
  Alcotest.(check bool) "get empty" true
    (KV_smr.call c (Get 5) = Some (Value None));
  KV_smr.Deployment.shutdown d

let test_part_kv_replicas_converge () =
  let d, services =
    kv_deployment
      ~mode:
        (Partitioned
           { partitions = 2; inner = Parallel { impl = Lockfree; workers = 2 } })
      ()
  in
  let c0 = KV_smr.Deployment.client d 0 in
  let c1 = KV_smr.Deployment.client d 1 in
  let t0 =
    Thread.create
      (fun () ->
        for i = 0 to 19 do
          ignore (KV_smr.call c0 (Put (i mod 8, i)) : _ option)
        done)
      ()
  in
  let t1 =
    Thread.create
      (fun () ->
        for i = 0 to 19 do
          ignore (KV_smr.call c1 (Put (8 + (i mod 8), 100 + i)) : _ option)
        done)
      ()
  in
  Thread.join t0;
  Thread.join t1;
  ignore (KV_smr.call c0 (Get 0) : _ option);
  Thread.delay 0.2;
  let dump = function
    | Some s -> List.init 64 (fun k -> Psmr_app.Kv_store.execute s (Get k))
    | None -> Alcotest.fail "service not created"
  in
  let s0 = dump services.(0) in
  Alcotest.(check bool) "replica 1 equals replica 0" true
    (dump services.(1) = s0);
  Alcotest.(check bool) "replica 2 equals replica 0" true
    (dump services.(2) = s0);
  KV_smr.Deployment.shutdown d

let test_part_bank_cross_transfers () =
  (* Transfers between even and odd accounts are cross-partition under
     partitions=2; the banks must converge with money conserved and the
     replicas' merges must actually have routed crosses. *)
  let accounts = 8 and initial = 100 in
  let services = Array.make 3 None in
  let make_service id =
    let s = Psmr_app.Bank.create ~accounts ~initial_balance:initial in
    services.(id) <- Some s;
    s
  in
  let cfg =
    {
      (Bank_smr.Deployment.default_config ~make_service ()) with
      clients = 2;
      mode = Partitioned { partitions = 2; inner = Sequential };
      abcast = fast_abcast;
      tick_interval = 1e-3;
      client_timeout = 0.4;
    }
  in
  let d = Bank_smr.Deployment.create cfg in
  Bank_smr.Deployment.start d;
  let c0 = Bank_smr.Deployment.client d 0 in
  let c1 = Bank_smr.Deployment.client d 1 in
  let worker c base =
    for i = 0 to 14 do
      let src = (base + i) mod accounts in
      let dst = (src + 1) mod accounts in
      ignore (Bank_smr.call c (Psmr_app.Bank.Transfer { src; dst; amount = 3 }) : _ option)
    done
  in
  let t0 = Thread.create (fun () -> worker c0 0) () in
  let t1 = Thread.create (fun () -> worker c1 3) () in
  Thread.join t0;
  Thread.join t1;
  ignore (Bank_smr.call c0 (Balance 0) : _ option);
  Thread.delay 0.2;
  let balances = function
    | Some s ->
        List.init accounts (fun a -> Psmr_app.Bank.execute s (Balance a))
    | None -> Alcotest.fail "service not created"
  in
  let b0 = balances services.(0) in
  let total =
    List.fold_left
      (fun acc -> function Psmr_app.Bank.Amount x -> acc + x | _ -> acc)
      0 b0
  in
  Alcotest.(check int) "money conserved" (accounts * initial) total;
  Alcotest.(check bool) "replica 1 equals replica 0" true
    (balances services.(1) = b0);
  Alcotest.(check bool) "replica 2 equals replica 0" true
    (balances services.(2) = b0);
  Alcotest.(check bool) "crosses were merged" true
    (Bank_smr.Deployment.replica_crosses d 0 > 0);
  Alcotest.(check int) "merge drained" 0
    (Bank_smr.Deployment.replica_merge_pending d 0);
  Bank_smr.Deployment.shutdown d

let test_part_sequencer_crash_failover () =
  let d, _ =
    kv_deployment ~clients:1
      ~mode:(Partitioned { partitions = 2; inner = Sequential })
      ()
  in
  let c = KV_smr.Deployment.client d 0 in
  Alcotest.(check bool) "p1 write before crash" true
    (KV_smr.call c (Put (1, 7)) = Some Stored);
  let seq = KV_smr.Deployment.replica_partition_leader d 0 ~part:1 in
  KV_smr.Deployment.crash_replica d seq;
  (* Partition 1 must fail over; both partitions keep serving.  Its new
     leader announces itself when its view installs (100 ms election
     timeout), and the client resends there before its 0.4 s timeout. *)
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "p1 write after crash" true
    (KV_smr.call c (Put (3, 8)) = Some Stored);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "p1 write after crash: no retry" 0
    (KV_smr.client_retries c);
  if elapsed >= 0.4 then
    Alcotest.failf "p1 write took %.3f s, past the client timeout" elapsed;
  (* Failover is per partition: partition 0's leader is alive, so its
     target stays put, and partition 1 keeps its new leader. *)
  Alcotest.(check bool) "p0 write after crash" true
    (KV_smr.call c (Put (2, 9)) = Some Stored);
  Alcotest.(check int) "p0 write adds no retry" 0 (KV_smr.client_retries c);
  Alcotest.(check bool) "p1 read after crash" true
    (KV_smr.call c (Get 3) = Some (Value (Some 8)));
  Alcotest.(check bool) "second p1 write after failover" true
    (KV_smr.call c (Put (5, 10)) = Some Stored);
  Alcotest.(check int) "p1 calls after failover add no retry" 0
    (KV_smr.client_retries c);
  let observer = if seq = 0 then 1 else 0 in
  Alcotest.(check bool) "partition 1 changed sequencer" true
    (KV_smr.Deployment.replica_partition_leader d observer ~part:1 <> seq);
  KV_smr.Deployment.shutdown d

(* Run [f] on its own thread; fail the test if it does not return within
   [limit] seconds (a wedged call never would), shutting [d] down so the
   thread's pending receive ends. *)
let within ~limit ~shutdown name f =
  let result = Atomic.make None in
  let th = Thread.create (fun () -> Atomic.set result (Some (f ()))) () in
  let deadline = Unix.gettimeofday () +. limit in
  while Atomic.get result = None && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  match Atomic.get result with
  | Some r ->
      Thread.join th;
      r
  | None ->
      shutdown ();
      Thread.join th;
      Alcotest.failf "%s: no reply within %.0f s" name limit

(* A cross-partition transfer issued while one touched partition's leader
   is down: replica 0 leads partition 0 (the home), replica 1 partition 1.
   The first attempt reaches only the live leader.  When the crashed
   partition installs its next view, the new leader's notice makes the
   client resend the lost leg alone, under the same uid, before the
   client timeout: no retry.  Later traffic must not wedge behind the
   failover, and must not time out either: the hints point the client at
   each partition's live leader. *)
let test_part_cross_failover crashed () =
  let accounts = 4 and initial = 100 in
  let services = Array.make 3 None in
  let make_service id =
    let s = Psmr_app.Bank.create ~accounts ~initial_balance:initial in
    services.(id) <- Some s;
    s
  in
  let d =
    Bank_smr.Deployment.create
      {
        (Bank_smr.Deployment.default_config ~make_service ()) with
        clients = 1;
        mode = Partitioned { partitions = 2; inner = Sequential };
        abcast = fast_abcast;
        tick_interval = 1e-3;
        client_timeout = 0.4;
      }
  in
  Bank_smr.Deployment.start d;
  Bank_smr.Deployment.crash_replica d crashed;
  let c = Bank_smr.Deployment.client d 0 in
  let call name cmd =
    within ~limit:8.0
      ~shutdown:(fun () -> Bank_smr.Deployment.shutdown d)
      name
      (fun () -> Bank_smr.call c cmd)
  in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "cross transfer completes" true
    (call "cross transfer" (Transfer { src = 0; dst = 1; amount = 10 })
    = Some Ok);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "no retry" 0 (Bank_smr.client_retries c);
  if elapsed >= 0.4 then
    Alcotest.failf "cross transfer took %.3f s, past the client timeout"
      elapsed;
  List.iter
    (fun (name, cmd) ->
      Alcotest.(check bool) name true (call name cmd = Some Ok))
    Psmr_app.Bank.
      [
        ("follow-up cross transfer", Transfer { src = 1; dst = 2; amount = 3 });
        ("partition 0 transfer", Transfer { src = 0; dst = 2; amount = 4 });
        ("partition 1 transfer", Transfer { src = 3; dst = 1; amount = 5 });
      ];
  Alcotest.(check int) "follow-ups add no retry" 0 (Bank_smr.client_retries c);
  let survivors = List.filter (fun id -> id <> crashed) [ 0; 1; 2 ] in
  let deadline = Unix.gettimeofday () +. 2.0 in
  while
    List.exists
      (fun id -> Bank_smr.Deployment.replica_executed d id < 4)
      survivors
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  let state id =
    match services.(id) with
    | Some s -> s
    | None -> Alcotest.fail "service not created"
  in
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d conserves money" id)
        (accounts * initial)
        (Psmr_app.Bank.total (state id));
      Alcotest.(check int)
        (Printf.sprintf "replica %d merge drained" id)
        0
        (Bank_smr.Deployment.replica_merge_pending d id))
    survivors;
  (match survivors with
  | [ a; b ] ->
      Alcotest.(check string) "survivors converge"
        (Psmr_app.Bank.snapshot (state a))
        (Psmr_app.Bank.snapshot (state b))
  | _ -> assert false);
  Bank_smr.Deployment.shutdown d

(* A cross-partition transfer in flight when partition 1's leader
   (replica 1) crash-stops, on the simulator at the benchmark's timing
   (150 ms election timeout, 20 ms heartbeats, 0.25 s client timeout,
   60 us links).  The crash lands 10 us after the send, so the leg sent to
   replica 1 is lost.  When partition 1 installs its next view, its new
   leader (replica 2) announces itself and the client resends that leg
   alone: the call returns with the view change and no timeout retry,
   and partition 0's leg is never resent. *)
let test_part_sim_notice_failover () =
  let open Psmr_sim in
  let engine = Engine.create () in
  let (module SP) = Sim_platform.make engine Costs.default in
  let module SMR = Psmr_replica.Replica.Make (SP) (Psmr_app.Bank) in
  let abcast =
    {
      Psmr_broadcast.Abcast.batch_max = 256;
      batch_delay = 0.5e-3;
      heartbeat_interval = 20e-3;
      election_timeout = 150e-3;
      checkpoint_interval = 256;
    }
  and client_timeout = 0.25 in
  let cfg =
    {
      (SMR.Deployment.default_config ~make_service:(fun _ ->
           Psmr_app.Bank.create ~accounts:4 ~initial_balance:100)
         ()) with
      clients = 1;
      mode = Partitioned { partitions = 2; inner = Sequential };
      abcast;
      tick_interval = 0.25e-3;
      client_timeout;
      latency = (fun ~src:_ ~dst:_ -> 60e-6);
    }
  in
  let d = SMR.Deployment.create cfg in
  let net = SMR.Deployment.network d in
  let client_addr = cfg.replicas in
  let sends = ref [] in
  let result = ref None in
  Engine.spawn engine (fun () ->
      SMR.Deployment.start d;
      let c = SMR.Deployment.client d 0 in
      ignore
        (SMR.call c (Transfer { src = 0; dst = 1; amount = 1 }) : _ option);
      SP.sleep 50e-3;
      (* Record where the client sends from here on. *)
      SMR.Net.set_link_filter net (fun ~src ~dst ->
          if src = client_addr && dst <> client_addr then
            sends := dst :: !sends;
          true);
      let crash_at = SP.now () +. 10e-6 in
      SP.spawn (fun () ->
          SP.sleep 10e-6;
          SMR.Deployment.crash_replica d 1);
      let resp = SMR.call c (Transfer { src = 2; dst = 3; amount = 5 }) in
      result := Some (resp, SP.now () -. crash_at, SMR.client_retries c));
  Engine.run ~until:2.0 engine;
  let resp, elapsed, retries =
    match !result with
    | Some r -> r
    | None -> Alcotest.fail "the cross transfer never returned"
  in
  Alcotest.(check bool) "cross transfer answered" true (resp = Some Ok);
  Alcotest.(check int) "no timeout retry" 0 retries;
  let floor = abcast.election_timeout -. abcast.heartbeat_interval in
  if not (elapsed >= floor && elapsed < client_timeout) then
    Alcotest.failf
      "returned %.1f ms after the crash; expected the view change, before \
       the %.0f ms client timeout"
      (elapsed *. 1e3) (client_timeout *. 1e3);
  Alcotest.(check (list int))
    "one leg to each leader, then partition 1's leg alone to its new leader"
    [ 0; 1; 2 ] (List.rev !sends);
  Alcotest.(check int) "partition 1 moved to replica 2" 2
    (SMR.Deployment.replica_partition_leader d 0 ~part:1);
  Alcotest.(check int) "merge drained" 0
    (SMR.Deployment.replica_merge_pending d 0)

(* [call_batch] keeps a batch within the at-most-once window. *)
let test_call_batch_window () =
  let d, _ =
    kv_deployment ~clients:1
      ~mode:(Partitioned { partitions = 2; inner = Sequential })
      ()
  in
  let c = KV_smr.Deployment.client d 0 in
  let batch n = Array.init n (fun k -> Psmr_app.Kv_store.Get (k mod 64)) in
  Alcotest.check_raises "window + 1 rejected"
    (Invalid_argument
       "Replica.call_batch: batch exceeds the at-most-once window")
    (fun () ->
      ignore (KV_smr.call_batch c (batch (KV_smr.window + 1)) : _ option));
  Alcotest.(check int) "a full window completes" KV_smr.window
    (match KV_smr.call_batch c (batch KV_smr.window) with
    | Some rs -> Array.length rs
    | None -> 0);
  KV_smr.Deployment.shutdown d

(* Clients route by partition: with replica 0 down from the start,
   partition 1 (led by replica 1) serves its commands on the first
   attempt. *)
let test_part_client_routing () =
  let d, _ =
    kv_deployment ~clients:1
      ~mode:(Partitioned { partitions = 2; inner = Sequential })
      ()
  in
  KV_smr.Deployment.crash_replica d 0;
  let c = KV_smr.Deployment.client d 0 in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "p1 write %d" k)
        true
        (KV_smr.call c (Put (k, k)) = Some Stored))
    [ 1; 3; 5; 7 ];
  Alcotest.(check bool) "p1 batch" true
    (KV_smr.call_batch c [| Get 1; Put (9, 9); Get 3 |]
    = Some [| Value (Some 1); Stored; Value (Some 3) |]);
  Alcotest.(check int) "no retry while partition 1's leader is up" 0
    (KV_smr.client_retries c);
  KV_smr.Deployment.shutdown d

(* --- routing: clients bucket with submit_batch's own rule --- *)

module RPart = Psmr_broadcast.Partition.Make (RP)

(* Replica 4 of 5 leads none of up to 4 partitions (partition [p] starts at
   replica [p]), so [submit_batch] forwards one [Request] per touched
   partition to its initial leader, and the captured sends are exactly its
   buckets. *)
let forwarded ~partitions fps =
  let sent = Array.make partitions [||] in
  let ep =
    RPart.create ~partitions ~id:4 ~n:5
      ~send:(fun dst (w : int Psmr_broadcast.Partition.wire) ->
        match w.msg with
        | Psmr_broadcast.Abcast.Request es ->
            if dst <> Psmr_broadcast.Partition.initial_leader ~n:5 w.part then
              QCheck.Test.fail_report "request not sent to the initial leader";
            sent.(w.part) <- es
        | _ -> ())
      ~deliver:(fun _ -> ())
      ()
  in
  RPart.submit_batch ep
    ~footprint:(fun i -> fps.(i))
    (Array.init (Array.length fps) Fun.id);
  sent

let qcheck_entries_are_submit_buckets =
  QCheck.Test.make ~count:500
    ~name:"routing: submit_batch forwards exactly Partition.entries"
    QCheck.(
      pair (int_range 1 4)
        (small_list (small_list (pair (int_range (-50) 50) bool))))
    (fun (partitions, fps) ->
      let fps = Array.of_list fps in
      let seq = ref 0 in
      let expected =
        Psmr_broadcast.Partition.entries ~partitions
          ~footprint:(fun i -> fps.(i))
          ~uid:(fun _ ->
            incr seq;
            Pmerge.uid ~origin:4 ~seq:(!seq - 1))
          (Array.init (Array.length fps) Fun.id)
      in
      forwarded ~partitions fps = expected)

(* Client uids (origin = client address >= n) and replica uids (origin =
   replica id < n) never collide, and every uid compares as its
   [(seq, origin)] pair — the order the [(ts, uid)] tie-break had when a
   replica's counter sat above a 6-bit id. *)
let qcheck_uid_packing =
  QCheck.Test.make ~count:1000 ~name:"uid: client and replica uids disjoint"
    QCheck.(
      quad (int_range 1 32) (int_range 0 100)
        (pair (int_range 0 31) (int_range 0 1_000_000))
        (pair (int_range 0 100) (int_range 0 1_000_000)))
    (fun (half, clients, (r, counter), (ci, rid)) ->
      let n = (2 * half) + 1 in
      let r = r mod n and ci = ci mod (clients + 1) in
      let uid = Pmerge.uid in
      let replica_uid = uid ~origin:r ~seq:counter in
      let client_uid = uid ~origin:(n + ci) ~seq:rid in
      replica_uid <> client_uid
      && compare replica_uid client_uid
         = compare (counter, r) (rid, n + ci))

let test_routing_edge_cases () =
  let touched = Psmr_broadcast.Partition.touched ~partitions:4 in
  Alcotest.(check (array int)) "empty footprint" [| 0 |] (touched []);
  Alcotest.(check (array int)) "negative key" [| 3 |] (touched [ (-1, true) ]);
  Alcotest.(check (array int)) "touched, negative keys normalized"
    [| 1; 2; 3 |]
    (touched [ (-1, false); (6, true); (-7, true); (1, false) ]);
  Alcotest.(check (list int)) "initial leaders wrap" [ 0; 1; 2; 0 ]
    (List.init 4 (Psmr_broadcast.Partition.initial_leader ~n:3));
  Alcotest.check_raises "origin beyond 16 bits"
    (Invalid_argument "Pmerge.uid") (fun () ->
      ignore (Pmerge.uid ~origin:65536 ~seq:0 : int))

(* --- equivalence: partitioned merge vs single-sequencer execution --- *)

(* The property that makes partitioned ordering usable for SMR: take one
   command log, shard it into per-partition sequencer streams, merge under
   several arrival interleavings, and execute.  All merged orders must
   yield the same per-command replies and the same final state as each
   other (replica convergence), and the merged order run through the
   Coarse COS executor must match its own sequential execution
   (single-sequencer equivalence) — for every bundled service. *)
module Equiv
    (S : Psmr_app.Service_intf.S) (C : sig
      val name : string
      val fresh : unit -> S.t
      val gen_cmd : Random.State.t -> S.command
    end) =
struct
  module R = Psmr_harness.Recovery.Make (S)

  let parts_of ~partitions cmd =
    Psmr_broadcast.Partition.touched ~partitions (S.footprint cmd)

  let run_seq (log : S.command array) order =
    let st = C.fresh () in
    let replies = Array.make (Array.length log) "" in
    List.iter
      (fun cid ->
        replies.(cid) <-
          Format.asprintf "%a" S.pp_response (S.execute st log.(cid)))
      order;
    (replies, S.snapshot st)

  let prop (partitions, k, seed) =
    let rng = Random.State.make [| seed |] in
    let log = Array.init k (fun _ -> C.gen_cmd rng) in
    let cmds =
      List.init k (fun cid ->
          { cid; touched = parts_of ~partitions log.(cid) })
    in
    let orders =
      Array.init partitions (fun p ->
          let mine =
            List.filter (fun c -> Array.exists (fun q -> q = p) c.touched) cmds
          in
          if partitions = 1 then mine else shuffle rng mine)
    in
    let runs =
      List.init 3 (fun i ->
          let arng = Random.State.make [| seed; i |] in
          run_interleaving ~partitions ~orders (random_pick arng))
    in
    let merged =
      List.map
        (fun (t, out) ->
          if Pmerge.pending t <> 0 then QCheck.Test.fail_report "merge stuck";
          emitted_cids out)
        runs
    in
    let m0 = List.hd merged in
    (* partitions=1 degenerates to the sequencer's order itself *)
    if partitions = 1 && m0 <> List.init k Fun.id then
      QCheck.Test.fail_report "p=1 must preserve the stream order";
    let r0, s0 = run_seq log m0 in
    List.iter
      (fun m ->
        let r, s = run_seq log m in
        if r <> r0 || s <> s0 then
          QCheck.Test.fail_report
            "merged orders disagree on replies or final state")
      (List.tl merged);
    (* Same merged order through the Coarse COS parallel executor. *)
    let out =
      R.run ~impl:Psmr_cos.Registry.Coarse ~workers:4 ~state:C.fresh
        ~log:(Array.of_list (List.map (fun cid -> log.(cid)) m0))
        ()
    in
    out.R.completed
    && out.R.final_state = s0
    && List.for_all2
         (fun i cid -> out.R.replies.(i) = r0.(cid))
         (List.init k Fun.id) m0

  let test =
    QCheck.Test.make ~count:40
      ~name:(Printf.sprintf "%s: partitioned merge == sequential == Coarse" C.name)
      (QCheck.make
         QCheck.Gen.(
           let* partitions = oneofl [ 1; 2; 4 ] in
           let* k = int_range 8 30 in
           let* seed = int_bound 1_000_000 in
           return (partitions, k, seed)))
      prop
end

module Bank_equiv =
  Equiv
    (Psmr_app.Bank)
    (struct
      let name = "bank"
      let fresh () = Psmr_app.Bank.create ~accounts:8 ~initial_balance:100

      let gen_cmd rng =
        match Random.State.int rng 3 with
        | 0 -> Psmr_app.Bank.Balance (Random.State.int rng 8)
        | 1 -> Psmr_app.Bank.Deposit (Random.State.int rng 8, Random.State.int rng 20)
        | _ ->
            let src = Random.State.int rng 8 in
            let dst = Random.State.int rng 8 in
            Psmr_app.Bank.Transfer { src; dst; amount = Random.State.int rng 30 }
    end)

(* A short closed-loop Part_bench run, pinned field by field: throughput,
   the merge ledger at replica 0 and the engine event count.  The run is
   deterministic, so a harness change that moves one event shows here.
   With metrics on it must pin the same line (recording is pure mutation)
   and export the partitioned-ordering layer. *)
let test_part_bench_pinned () =
  List.iter
    (fun metrics ->
      let r =
        Psmr_harness.Part_bench.run ~partitions:2 ~workers:4
          ~spec:Psmr_workload.Workload.Keyed.low_conflict ~duration:0.01
          ~warmup:0.002 ~metrics ()
      in
      Alcotest.(check string)
        "part2/w4 run"
        "kops=878.5 executed=8785 emitted=9154 crosses=84 holes=0 \
         merge_pending=0 engine_events=145429"
        (Printf.sprintf
           "kops=%.9g executed=%d emitted=%d crosses=%d holes=%d \
            merge_pending=%d engine_events=%d"
           r.kops r.executed r.emitted r.crosses r.holes r.merge_pending
           r.engine_events);
      Option.iter
        (fun m ->
          Alcotest.(check bool)
            "part.* exported" true
            (List.exists
               (fun (name, _) -> String.starts_with ~prefix:"part." name)
               (Psmr_obs.Metrics.assoc m)))
        r.metrics)
    [ false; true ]

(* A request batch larger than the credit window can never acquire its
   credits; the stack must refuse it up front instead of wedging the
   feeder. *)
let test_part_bench_batch_over_window () =
  match
    Psmr_harness.Part_bench.run ~partitions:2 ~workers:4
      ~spec:Psmr_workload.Workload.Keyed.low_conflict ~batch:2048
      ~window:1024 ~duration:0.01 ~warmup:0.002 ()
  with
  | exception Invalid_argument _ -> ()
  | r -> Alcotest.failf "batch 2048 over a 1024 window ran: %.1f kops" r.kops

module Kv_equiv =
  Equiv
    (Psmr_app.Kv_store)
    (struct
      let name = "kv"
      let fresh () = Psmr_app.Kv_store.create ~capacity:16

      let gen_cmd rng =
        if Random.State.bool rng then Psmr_app.Kv_store.Get (Random.State.int rng 16)
        else Psmr_app.Kv_store.Put (Random.State.int rng 16, Random.State.int rng 100)
    end)

module List_equiv =
  Equiv
    (Psmr_app.Linked_list)
    (struct
      let name = "linked-list"
      let fresh () = Psmr_app.Linked_list.create ~initial_size:8

      let gen_cmd rng =
        if Random.State.bool rng then
          Psmr_app.Linked_list.Contains (Random.State.int rng 32)
        else Psmr_app.Linked_list.Add (Random.State.int rng 32)
    end)

let () =
  let qcheck t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "partition"
    [
      ( "pmerge",
        [
          Alcotest.test_case "singles passthrough" `Quick
            test_singles_passthrough;
          Alcotest.test_case "rendezvous waits for all streams" `Quick
            test_rendezvous_waits_for_all_streams;
          Alcotest.test_case "cycle tie-break deterministic" `Quick
            test_cycle_tiebreak_deterministic;
          Alcotest.test_case "no-barrier is arrival-dependent" `Quick
            test_no_barrier_is_arrival_dependent;
          Alcotest.test_case "push validation" `Quick test_push_validation;
          Alcotest.test_case "rotational wedge regression" `Quick
            test_rotational_wedge_regression;
          Alcotest.test_case "shared-stream wedges regression" `Quick
            test_shared_stream_wedges_regression;
          Alcotest.test_case "emitted-cross memory bounded (long run)" `Quick
            test_emitted_cross_bounded;
          Alcotest.test_case "repeat memory bounded (long run)" `Quick
            test_repeat_memory_bounded;
        ] );
      ( "pmerge-qcheck",
        [
          qcheck qcheck_merge_deterministic;
          qcheck qcheck_all_cross_drains;
          qcheck qcheck_repeats_invisible;
        ]
      );
      ( "part-sim",
        [
          Alcotest.test_case "partitions=1 == single abcast" `Quick
            test_p1_matches_single_abcast;
          Alcotest.test_case "replicas agree on projections" `Quick
            test_replicas_agree_on_projections;
          Alcotest.test_case "sequencer crash recovers partition" `Quick
            test_sequencer_crash_recovers_partition;
          Alcotest.test_case "golden merged-order trace" `Quick
            test_golden_trace;
          Alcotest.test_case "cross command in one hop" `Quick
            test_cross_one_hop;
          Alcotest.test_case "pinned Part_bench run" `Quick
            test_part_bench_pinned;
          Alcotest.test_case "Part_bench batch over window is refused" `Quick
            test_part_bench_batch_over_window;
        ] );
      ( "part-deploy",
        [
          Alcotest.test_case "kv roundtrip (sequential inner)" `Quick
            (test_part_kv_roundtrip Sequential);
          Alcotest.test_case "kv roundtrip (early inner)" `Quick
            (test_part_kv_roundtrip
               (Parallel_early { workers = 2; classes = None }));
          Alcotest.test_case "kv roundtrip (early-opt inner)" `Quick
            (test_part_kv_roundtrip
               (Parallel_early_opt { workers = 2; classes = None }));
          Alcotest.test_case "kv replicas converge (cos inner)" `Quick
            test_part_kv_replicas_converge;
          Alcotest.test_case "bank cross-partition transfers" `Quick
            test_part_bank_cross_transfers;
          Alcotest.test_case "sequencer crash failover" `Quick
            test_part_sequencer_crash_failover;
          Alcotest.test_case "client routes around a dead replica 0" `Quick
            test_part_client_routing;
          Alcotest.test_case "cross failover, home leader down" `Quick
            (test_part_cross_failover 0);
          Alcotest.test_case "cross leg healed by the leader notice" `Quick
            test_part_sim_notice_failover;
          Alcotest.test_case "cross failover, non-home leader down" `Quick
            (test_part_cross_failover 1);
          Alcotest.test_case "call_batch within the window" `Quick
            test_call_batch_window;
        ] );
      ( "routing",
        [
          Alcotest.test_case "edge cases" `Quick test_routing_edge_cases;
          qcheck qcheck_entries_are_submit_buckets;
          qcheck qcheck_uid_packing;
        ] );
      ( "part-equivalence",
        [ qcheck Bank_equiv.test; qcheck Kv_equiv.test; qcheck List_equiv.test ]
      );
    ]
