(* Partitioned-merge scenario runner for the controlled scheduler.

   The property under check is Pmerge's whole reason to exist: replicas of
   a partitioned atomic broadcast receive the same per-partition delivery
   streams but interleaved arbitrarily in time, and must still derive the
   same per-partition emission order (any two commands sharing a partition
   — in particular any two conflicting commands — keep one relative
   order everywhere).  The scenario instantiates [replicas] independent
   merges over one shared set of stream contents and gives the explorer a
   decision point before every push, so the picker drives each replica
   through a different arrival interleaving within a single schedule and
   the divergence oracle compares them directly.

   Oracles: per-partition projection agreement across replicas,
   exactly-once emission (repeated legs included), drained merges (no
   rendezvous deadlock), and tie-break (hole) count agreement —
   tie-breaks are content-determined, so replicas must take the same
   number.  The [no_barrier] variant plants Pmerge's rendezvous-skipping
   bug; the projection oracle must catch it (pinned with
   --expect-violation in the @check-part alias). *)

module Pmerge = Psmr_broadcast.Pmerge

type scenario = {
  partitions : int;
  replicas : int;  (** independent merge instances compared *)
  commands : int;
  touched : int array array;
      (** per command: ascending touched partitions (1 = single) *)
  streams : int list array;
      (** per partition: command indices in sequencer order — identical at
          every replica, as the per-partition abcast guarantees; a cross
          index recurs where the stream carries a repeated leg *)
  no_barrier : bool;
}

let repeat_pct = 30

let scenario ?(partitions = 2) ?(replicas = 2) ?(commands = 10)
    ?(cross_pct = 30.0) ?(no_barrier = false) ~workload_seed () =
  if partitions <= 0 then invalid_arg "Partition_check: partitions";
  if replicas < 2 then invalid_arg "Partition_check: need >= 2 replicas";
  let rng = Psmr_util.Rng.create ~seed:workload_seed in
  let touched =
    Array.init commands (fun _ ->
        if
          partitions > 1
          && float_of_int (Psmr_util.Rng.int rng 100) < cross_pct
        then begin
          (* a uniformly random 2..P-subset, ascending *)
          let size = 2 + Psmr_util.Rng.int rng (partitions - 1) in
          let all = Array.init partitions Fun.id in
          for i = partitions - 1 downto 1 do
            let j = Psmr_util.Rng.int rng (i + 1) in
            let tmp = all.(i) in
            all.(i) <- all.(j);
            all.(j) <- tmp
          done;
          let sub = Array.sub all 0 size in
          Array.sort compare sub;
          sub
        end
        else [| Psmr_util.Rng.int rng partitions |])
  in
  (* Per-partition sequencer orders: the commands touching the partition,
     independently shuffled — inconsistent cross orders (the tie-break
     path) arise naturally. *)
  let streams =
    Array.init partitions (fun p ->
        let mine = ref [] in
        for i = commands - 1 downto 0 do
          if Array.exists (fun q -> q = p) touched.(i) then mine := i :: !mine
        done;
        let a = Array.of_list !mine in
        for i = Array.length a - 1 downto 1 do
          let j = Psmr_util.Rng.int rng (i + 1) in
          let tmp = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- tmp
        done;
        Array.to_list a)
  in
  (* Repeated legs, as a client resend leaves them: each cross entry's
     stream also carries, with probability [repeat_pct]%, a copy at a
     random later position. *)
  let streams =
    Array.map
      (fun stream ->
        List.fold_left
          (fun acc i ->
            if
              Array.length touched.(i) > 1
              && Psmr_util.Rng.int rng 100 < repeat_pct
            then begin
              let first = Option.get (List.find_index (fun j -> j = i) acc) in
              let at =
                first + 1 + Psmr_util.Rng.int rng (List.length acc - first)
              in
              List.filteri (fun k _ -> k < at) acc
              @ (i :: List.filteri (fun k _ -> k >= at) acc)
            end
            else acc)
          stream stream)
      streams
  in
  { partitions; replicas; commands; touched; streams; no_barrier }

let run_schedule ?max_steps ?trace ?metrics sc ~pick =
  Check_platform.run ?max_steps ?trace ?metrics ~pick
  @@ fun _ (module P : Psmr_platform.Platform_intf.S) ~viol ->
  let viol fmt = Printf.ksprintf viol fmt in
  (* One merge per replica; emissions recorded in order.  The merges are
     fiber-local plain state — the engine serializes fibers, so no
     synchronization is involved and yields are the only decision
     points. *)
  let emitted = Array.init sc.replicas (fun _ -> ref []) in
  let merges =
    Array.init sc.replicas (fun r ->
        Pmerge.create ~no_barrier:sc.no_barrier ~partitions:sc.partitions
          ~emit:(fun (e : int Pmerge.emitted) ->
            emitted.(r) := e.cmd :: !(emitted.(r)))
          ())
  in
  let entry_of i =
    if Array.length sc.touched.(i) = 1 then Pmerge.Single i
    else Pmerge.Cross { uid = i; parts = sc.touched.(i); cmd = i }
  in
  let pushers_left = ref (sc.replicas * sc.partitions) in
  for r = 0 to sc.replicas - 1 do
    for p = 0 to sc.partitions - 1 do
      P.spawn ~name:(Printf.sprintf "push-r%d-p%d" r p) (fun () ->
          List.iter
            (fun i ->
              (* The decision point: the picker chooses which replica's
                 which stream advances next, i.e. the arrival
                 interleaving. *)
              P.yield ();
              Pmerge.push merges.(r) ~part:p (entry_of i))
            sc.streams.(p);
          decr pushers_left)
    done
  done;
  fun () ->
  let completed = !pushers_left = 0 in
  if not completed then
    viol "deadlock: %d pusher(s) never finished" !pushers_left;
  (* Exactly-once and drain, per replica. *)
  Array.iteri
    (fun r out ->
      let q = Pmerge.pending merges.(r) in
      if q <> 0 then
        viol "merge deadlock: replica %d left %d entries unconsumed" r q;
      let cids = List.rev !out in
      let sorted = List.sort compare cids in
      if sorted <> List.init sc.commands Fun.id then
        viol
          "exactly-once violated: replica %d emitted %d commands (%d \
           distinct)"
          r (List.length cids)
          (List.length (List.sort_uniq compare cids)))
    emitted;
  (* The divergence oracle: per-partition projections must agree with
     replica 0's. *)
  let projection r p =
    List.filter (fun i -> Array.exists (fun q -> q = p) sc.touched.(i))
      (List.rev !(emitted.(r)))
  in
  for p = 0 to sc.partitions - 1 do
    let ref_proj = projection 0 p in
    for r = 1 to sc.replicas - 1 do
      if projection r p <> ref_proj then
        viol
          "divergence: partition %d ordered [%s] at replica %d but [%s] \
           at replica 0"
          p
          (String.concat ";" (List.map string_of_int (projection r p)))
          r
          (String.concat ";" (List.map string_of_int ref_proj))
    done
  done;
  (* Tie-breaks are content-determined: every replica takes the same
     number (skipped under the planted bug, whose hole counter means
     something else). *)
  if not sc.no_barrier then
    for r = 1 to sc.replicas - 1 do
      if Pmerge.holes merges.(r) <> Pmerge.holes merges.(0) then
        viol "tie-break count diverged: replica %d took %d, replica 0 %d" r
          (Pmerge.holes merges.(r))
          (Pmerge.holes merges.(0))
    done;
  completed
