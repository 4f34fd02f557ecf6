(** Deterministic cross-partition merge — the delivery-side half of
    partitioned atomic broadcast (see docs/PARTITIONING.md).

    Each partition's sequencer delivers a totally ordered stream of
    {!entry} values; the same streams arrive at every replica (uniform
    total order per partition), but interleaved differently in time.  This
    module folds the P streams into one emission sequence whose every
    {e order-relevant} decision is a function of the stream contents alone
    — never of arrival timing — so all replicas derive the same relative
    order for any two commands that share a partition:

    - a {b single-partition} command is emitted when it reaches the head of
      its home stream (all its predecessors in that stream emitted);
    - a {b cross-partition} command appears in every touched stream and is
      emitted once (attributed to its designated, lowest-id, touched
      partition) when it is simultaneously at the head of {e all} its
      touched streams — the rendezvous that orders it after every
      predecessor and before every successor in each touched stream;
    - independent sequencers can order two cross-partition commands
      inconsistently (X before Y in partition p, Y before X in q), wedging
      the rendezvous in a cycle.  A wedge is broken only once it is
      {e closed}: its heads have been seen in all of their touched streams
      and wait only on each other, so no later arrival can change it (the
      wedged positions are a function of stream contents: natural progress
      is confluent).  Its victim — the member with the smallest
      [(timestamp, uid)], timestamp being the largest per-partition sequence
      position the command was assigned — is then identical at every
      replica, and closed wedges touch disjoint streams, so the order in
      which they break shows in no projection.  The streams the victim
      thereby jumps retain a {e hole} at its position, skipped when
      reached.

    The [no_barrier] variant deliberately skips the rendezvous (a cross
    command is emitted the moment it heads its designated stream, and its
    other occurrences are discarded on sight): emission order then depends
    on arrival interleaving, which is exactly the planted bug
    [Check.Partition_check]'s divergence oracle must catch.

    Single-threaded by contract, like {!Abcast}: the host pushes from one
    thread per merge instance.  Pure OCaml — no platform effects — so the
    checker can drive it under the controlled scheduler with pushes as the
    only decision points. *)

module Probe = Psmr_obs.Probe

type 'c entry =
  | Single of 'c
  | Cross of { uid : int; parts : int array; cmd : 'c }
      (** [parts]: ascending touched partition ids; [uid]: globally unique
          ({!uid}), identical in every touched stream's copy. *)

(* A cross uid packs its origin (a node address) into the low 16 bits and
   the origin's sequence number above them, so [compare] on uids orders by
   [(seq, origin)]. *)
let origin_bits = 16
let origins = 1 lsl origin_bits

let uid ~origin ~seq =
  if origin < 0 || origin >= origins || seq < 0 then invalid_arg "Pmerge.uid";
  (seq lsl origin_bits) lor origin

type 'c emitted = {
  part : int;  (** home partition (single) or designated lowest (cross) *)
  cross : bool;
  uid : int;  (** cross uid, or [-1] for single-partition commands *)
  cmd : 'c;
}

type cross_state = {
  parts : int array;
  mutable ts : int;  (** max per-partition sequence position seen so far *)
  mutable seen : int;  (** streams the command has been pushed into *)
  mutable dropped : int;  (** occurrences discarded before emission *)
  mutable first_push : float;  (** virtual time of first sighting *)
}

type 'c t = {
  partitions : int;
  no_barrier : bool;
  emit : 'c emitted -> unit;
  streams : 'c entry Queue.t array;
  high : (int, int) Hashtbl.t array;
      (** per stream: origin -> highest cross seq the stream carried *)
  pushed : int array;  (** per-partition entries pushed (sequence counters) *)
  cross : (int, cross_state) Hashtbl.t;  (** pending cross commands *)
  emitted_cross : (int, int ref) Hashtbl.t;
      (** emitted cross uids -> stream occurrences still to skip (queued
          or not yet pushed); removed when the last one is consumed *)
  mutable emitted_count : int;
  mutable cross_count : int;
  mutable hole_count : int;
  mutable queued : int;  (** entries pushed but not yet consumed *)
}

let create ?(no_barrier = false) ~partitions ~emit () =
  if partitions <= 0 then invalid_arg "Pmerge.create: partitions must be > 0";
  {
    partitions;
    no_barrier;
    emit;
    streams = Array.init partitions (fun _ -> Queue.create ());
    high = Array.init partitions (fun _ -> Hashtbl.create 16);
    pushed = Array.make partitions 0;
    cross = Hashtbl.create 16;
    emitted_cross = Hashtbl.create 16;
    emitted_count = 0;
    cross_count = 0;
    hole_count = 0;
    queued = 0;
  }

let partitions t = t.partitions
let emitted t = t.emitted_count
let crosses t = t.cross_count
let holes t = t.hole_count
let pending t = t.queued

let pushed t ~part =
  if part < 0 || part >= t.partitions then invalid_arg "Pmerge.pushed";
  t.pushed.(part)

let designated parts = parts.(0)

let emitted_live t = Hashtbl.length t.emitted_cross

let remembered_origins t =
  Array.fold_left (fun acc h -> acc + Hashtbl.length h) 0 t.high

(* Whether stream [part] already carried cross uid [uid]; records it if
   not.  An origin's first occurrences reach a stream in ascending seq
   order (see {!push}), so any seq at or below the origin's highest is a
   repeat. *)
let repeat t ~part uid =
  let origin = uid land (origins - 1) and seq = uid lsr origin_bits in
  match Hashtbl.find_opt t.high.(part) origin with
  | Some high when seq <= high -> true
  | Some _ | None ->
      Hashtbl.replace t.high.(part) origin seq;
      false

(* [consumed]: occurrences of [uid] popped by the emission itself. *)
let emit_cross t ~uid ~(st : cross_state) ~consumed cmd =
  let left = Array.length st.parts - st.dropped - consumed in
  if left > 0 then Hashtbl.replace t.emitted_cross uid (ref left);
  Hashtbl.remove t.cross uid;
  t.cross_count <- t.cross_count + 1;
  t.emitted_count <- t.emitted_count + 1;
  Probe.part_cross ();
  if Probe.enabled () then Probe.part_stall (Probe.now () -. st.first_push);
  t.emit { part = designated st.parts; cross = true; uid; cmd }

let pop t p =
  ignore (Queue.pop t.streams.(p) : 'c entry);
  t.queued <- t.queued - 1

(* One pass over stream [p]'s head: consume holes, emit singles, emit a
   rendezvous-complete cross (checked from its designated stream only, so
   the check runs exactly once per round).  Returns true on any progress. *)
let advance t p =
  let progress = ref false in
  let stop = ref false in
  while not !stop do
    match Queue.peek_opt t.streams.(p) with
    | None -> stop := true
    | Some (Single cmd) ->
        pop t p;
        t.emitted_count <- t.emitted_count + 1;
        Probe.part_single ();
        t.emit { part = p; cross = false; uid = -1; cmd };
        progress := true
    | Some (Cross { uid; parts; cmd }) -> (
        match Hashtbl.find_opt t.emitted_cross uid with
        | Some left ->
            (* A hole left by a tie-break (or, under [no_barrier], by the
               designated stream racing ahead): already emitted, skip. *)
            pop t p;
            decr left;
            if !left = 0 then Hashtbl.remove t.emitted_cross uid;
            progress := true
        | None ->
            if t.no_barrier then
              if p = designated parts then begin
                (* Planted bug: no rendezvous — emit on designated-head sight,
                   ordered against other partitions only by arrival timing. *)
                let st = Hashtbl.find t.cross uid in
                pop t p;
                emit_cross t ~uid ~st ~consumed:1 cmd;
                progress := true
              end
              else begin
                (* Planted bug, other half: foreign occurrences are discarded
                   without waiting for the designated emission. *)
                let st = Hashtbl.find t.cross uid in
                st.dropped <- st.dropped + 1;
                pop t p;
                t.hole_count <- t.hole_count + 1;
                progress := true
              end
            else if p = designated parts then begin
              (* Rendezvous: emit iff at the head of every touched stream. *)
              let at_all_heads =
                Array.for_all
                  (fun q ->
                    match Queue.peek_opt t.streams.(q) with
                    | Some (Cross { uid = u; _ }) -> u = uid
                    | Some (Single _) | None -> false)
                  parts
              in
              if at_all_heads then begin
                let st = Hashtbl.find t.cross uid in
                (* Pop only the designated occurrence; the other streams skip
                   theirs as already-emitted on their own advance. *)
                pop t p;
                emit_cross t ~uid ~st ~consumed:1 cmd;
                progress := true
              end
              else stop := true
            end
            else stop := true)
  done;
  !progress

(* Deadlock break.  At a rendezvous fixpoint every nonempty stream heads
   an unemitted cross command.  The graph is over the fully seen heads
   (pushed into all their touched streams): head X waits for the head of
   each touched stream X is queued behind.  A victim is taken only from a
   {e closed} wedge — a strongly connected component of at least two heads
   none of which waits on a head outside it — and is its member with the
   smallest [(ts, uid)]; its emission leaves holes.

   Closure is what makes the break a function of stream contents.  Every
   stream a closed wedge touches is headed by one of its members, so later
   arrivals change none of its heads or edges: the wedge, hence its victim,
   is the same whenever it is broken, and nothing queued in its streams can
   be emitted first.  Two closed wedges touch disjoint streams, so the
   order in which they break shows in no projection.  A wedge that waits
   on a head outside itself (one not fully seen, or another wedge) waits
   too: breaking it by key would let a smaller-keyed wedge behind it, or
   one formed by copies still in flight, go second at one replica and
   first at another — observed with rotationally wedged crosses and with
   two wedges sharing streams ([test_partition]'s regressions).  Once
   every copy has arrived, some component is closed (each head waits on
   another), so the merge always drains. *)
let find_victim t =
  let heads = Hashtbl.create 8 in
  for p = 0 to t.partitions - 1 do
    match Queue.peek_opt t.streams.(p) with
    | Some (Cross { uid; cmd; _ }) -> (
        match Hashtbl.find_opt t.cross uid with
        | Some st when st.seen = Array.length st.parts ->
            Hashtbl.replace heads uid (st, cmd)
        | Some _ | None -> ())
    | Some (Single _) | None -> ()
  done;
  (* The heads [uid] waits for; [None] stands for one not fully seen. *)
  let waits_for uid =
    let st, _ = Hashtbl.find heads uid in
    Array.to_list st.parts
    |> List.filter_map (fun q ->
           match Queue.peek_opt t.streams.(q) with
           | Some (Cross { uid = u; _ }) when u = uid -> None
           | Some (Cross { uid = u; _ }) when Hashtbl.mem heads u ->
               Some (Some u)
           | Some _ | None -> Some None)
  in
  (* The heads reachable from [uid], or [None] if one of them waits on a
     head not fully seen. *)
  let reach uid =
    let seen = Hashtbl.create 8 in
    let rec walk u =
      List.for_all
        (function
          | None -> false
          | Some v ->
              Hashtbl.mem seen v
              || begin
                   Hashtbl.add seen v ();
                   walk v
                 end)
        (waits_for u)
    in
    if walk uid then Some seen else None
  in
  let reaches = Hashtbl.create 8 in
  Hashtbl.iter (fun uid _ -> Hashtbl.replace reaches uid (reach uid)) heads;
  (* [uid] lies in a closed wedge iff it reaches itself, never a head not
     fully seen, and only heads that reach it back. *)
  let in_closed_wedge uid =
    match Hashtbl.find reaches uid with
    | None -> false
    | Some r ->
        Hashtbl.mem r uid
        && Hashtbl.fold
             (fun v () ok ->
               ok
               &&
               match Hashtbl.find reaches v with
               | Some rv -> Hashtbl.mem rv uid
               | None -> false)
             r true
  in
  Hashtbl.fold
    (fun uid (st, cmd) best ->
      if not (in_closed_wedge uid) then best
      else
        let key = (st.ts, uid) in
        match best with
        | Some (k, _, _, _) when compare k key <= 0 -> best
        | _ -> Some (key, uid, st, cmd))
    heads None

(* Run emission to fixpoint: scan all streams until nothing moves, then
   attempt exactly one cycle break and rescan.  Every break emits one
   command, so the loop terminates. *)
let drain t =
  let continue_ = ref true in
  while !continue_ do
    let progress = ref true in
    while !progress do
      progress := false;
      for p = 0 to t.partitions - 1 do
        if advance t p then progress := true
      done
    done;
    if t.no_barrier then continue_ := false
    else
      match find_victim t with
      | Some (_, uid, st, cmd) ->
          t.hole_count <- t.hole_count + 1;
          Probe.part_hole ();
          emit_cross t ~uid ~st ~consumed:0 cmd
          (* its stream occurrences are consumed as holes on rescan *)
      | None -> continue_ := false
  done

let enqueue t ~part e =
  let pos = t.pushed.(part) in
  t.pushed.(part) <- pos + 1;
  (match e with
  | Single _ -> ()
  | Cross { uid; parts; _ } ->
      if not (Hashtbl.mem t.emitted_cross uid) then begin
        let st =
          match Hashtbl.find_opt t.cross uid with
          | Some st -> st
          | None ->
              let st =
                {
                  parts;
                  ts = 0;
                  seen = 0;
                  dropped = 0;
                  first_push = Probe.now ();
                }
              in
              Hashtbl.add t.cross uid st;
              st
        in
        st.ts <- max st.ts pos;
        st.seen <- st.seen + 1
      end);
  Queue.push e t.streams.(part);
  t.queued <- t.queued + 1;
  drain t

(* A repeat is dropped before it takes a sequence position, so the merge
   proceeds exactly as if the stream never carried it. *)
let push t ~part e =
  if part < 0 || part >= t.partitions then invalid_arg "Pmerge.push";
  match e with
  | Cross { parts; _ } when Array.length parts < 2 ->
      invalid_arg "Pmerge.push: cross entry must touch >= 2 partitions"
  | Cross { uid; _ } when repeat t ~part uid -> ()
  | Single _ | Cross _ -> enqueue t ~part e
