(** Partitioned atomic broadcast: N independent sequencer instances
    ({!Abcast}) ordering disjoint shards of the key space, folded back
    into one deterministic delivery sequence by {!Pmerge}.

    The key→partition map is the static [key mod partitions] sharding the
    early scheduler's class map uses for worker queues ({!touched}).  A
    command touching one partition is ordered by that home sequencer
    alone; a footprint spanning partitions multicasts one {!Pmerge.Cross}
    entry — tagged with a globally unique {!Pmerge.uid} — to {e every}
    touched partition's sequencer, and the merge emits it once all touched
    streams agree (see [Pmerge] for the rendezvous and cycle tie-break
    rules).  {!entries} is that bucketing as a pure function, so a client
    multicasts with the very rule {!Make.submit_batch} uses.

    Per-partition leadership is rotated with {!Abcast}'s [leader_offset]
    (partition [p] starts at leader {!initial_leader} [= p mod n]), so
    sequencer load spreads across replicas instead of piling on replica 0.

    Threading contract: like [Abcast], this module owns no threads — the
    host feeds {!Make.handle} and {!Make.tick} from one thread per
    instance, and the [deliver] upcall fires from within those calls. *)

open Psmr_platform

(** Wire format: a partition tag routing the inner protocol message to the
    right sequencer instance on the receiving replica. *)
type 'c wire = { part : int; msg : 'c Pmerge.entry Abcast.message }

(* --- routing --- *)

let part_of_key ~partitions k =
  let p = k mod partitions in
  if p < 0 then p + partitions else p

(* A footprint-free command conflicts with nothing; partition 0 orders it. *)
let touched ~partitions = function
  | [] -> [| 0 |]
  | fp ->
      Array.of_list
        (List.sort_uniq compare
           (List.map (fun (k, _) -> part_of_key ~partitions k) fp))

let initial_leader ~n p = p mod n

(* Per-partition entries of a batch, each partition's in array order.  A
   cross entry's ascending [parts] start at its lowest touched partition,
   {!Pmerge}'s designated one; [uid] is asked once per cross command, in
   array order. *)
let entries ~partitions ~footprint ~uid cmds =
  let buckets = Array.make partitions [] in
  Array.iter
    (fun cmd ->
      let parts = touched ~partitions (footprint cmd) in
      if Array.length parts = 1 then
        let p = parts.(0) in
        buckets.(p) <- Pmerge.Single cmd :: buckets.(p)
      else begin
        let entry = Pmerge.Cross { uid = uid cmd; parts; cmd } in
        Array.iter (fun p -> buckets.(p) <- entry :: buckets.(p)) parts
      end)
    cmds;
  Array.map (fun es -> Array.of_list (List.rev es)) buckets

(* --- snapshot cut --- *)

type 'c cut = { seqs : int array; merge : 'c Pmerge.cut }

let supersedes seqs have =
  Array.for_all2 ( >= ) seqs have && Array.exists2 ( > ) seqs have

module Make (P : Platform_intf.S) = struct
  module Ab = Abcast.Make (P)

  type 'c t = {
    partitions : int;
    id : int;
    abs : 'c Pmerge.entry Ab.t array;  (** one sequencer per partition *)
    merge : 'c Pmerge.t;
    mutable uids : int;  (** next cross seq; {!Pmerge.uid}-packed with [id] *)
  }

  let create ?config ~partitions ~id ~n ~send ~deliver () =
    if partitions <= 0 then
      invalid_arg "Partition.create: partitions must be > 0";
    let merge = Pmerge.create ~partitions ~emit:deliver () in
    let abs =
      Array.init partitions (fun p ->
          Ab.create ?config ~leader_offset:(initial_leader ~n p) ~id ~n
            ~send:(fun dst msg -> send dst { part = p; msg })
            ~deliver:(fun batch ->
              Array.iter (fun e -> Pmerge.push merge ~part:p e) batch)
            ())
    in
    { partitions; id; abs; merge; uids = 0 }

  (* Submission: one [Ab.submit] — hence, from a non-leader, one
     [Request] wire message — per touched partition for the whole batch.
     Sequencer commitment needs the leader to process [Prepare_ok] acks,
     and those share its FIFO input queue with incoming requests, so
     per-partition coalescing keeps the acks (and so the commit point, and
     so every cross-partition rendezvous against this partition) from
     queueing behind a flood of forwarded requests. *)
  let submit_batch t ~footprint cmds =
    let per_part =
      entries ~partitions:t.partitions ~footprint
        ~uid:(fun _ ->
          let u = Pmerge.uid ~origin:t.id ~seq:t.uids in
          t.uids <- t.uids + 1;
          u)
        cmds
    in
    Array.iteri
      (fun p es -> if Array.length es > 0 then Ab.submit t.abs.(p) es)
      per_part

  let handle t ~src { part; msg } =
    if part < 0 || part >= t.partitions then invalid_arg "Partition.handle";
    Ab.handle t.abs.(part) ~src msg

  let tick t = Array.iter Ab.tick t.abs

  (* --- snapshot cut --- *)

  let delivered t = Array.map Ab.delivered_seq t.abs

  (* Taken on the protocol thread, between deliveries: each sequencer's
     delivered seq and the merge that folded exactly those prefixes. *)
  let cut t = { seqs = delivered t; merge = Pmerge.cut t.merge }

  let install_cut t c =
    supersedes c.seqs (delivered t)
    && begin
         Array.iteri (fun p seq -> Ab.install_snapshot t.abs.(p) ~seq) c.seqs;
         Pmerge.install t.merge c.merge;
         true
       end

  (* --- introspection --- *)

  let partitions t = t.partitions
  let view t ~part = Ab.view t.abs.(part)
  let leader t ~part = Ab.leader t.abs.(part)

  let views_installed t =
    Array.fold_left (fun acc ab -> acc + Ab.views_installed ab) 0 t.abs

  let is_stalled t = Array.exists Ab.is_stalled t.abs
  let emitted t = Pmerge.emitted t.merge
  let crosses t = Pmerge.crosses t.merge
  let holes t = Pmerge.holes t.merge
  let merge_pending t = Pmerge.pending t.merge
end
