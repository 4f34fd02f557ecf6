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
      the rendezvous in a cycle.  The wedge is broken only once {e every}
      nonempty stream's head has been seen in all of its touched streams:
      the wedged positions are a function of stream contents (natural
      progress is confluent), and with complete information so is the
      waits-for graph over the heads, making the chosen victim — the
      on-cycle head with the smallest [(timestamp, uid)], timestamp being
      the largest per-partition sequence position the command was assigned
      — identical at every replica.  The streams the victim thereby jumps
      retain a {e hole} at its position, skipped when reached.

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
      (** [parts]: ascending touched partition ids; [uid]: globally unique,
          identical in every touched stream's copy. *)

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
  present : (int, unit) Hashtbl.t array;
      (** per stream: uids of cross entries currently queued in it *)
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
    present = Array.init partitions (fun _ -> Hashtbl.create 16);
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

(* Pop stream [p]'s head; bookkeeping for cross occurrences. *)
let pop t p =
  let e = Queue.pop t.streams.(p) in
  t.queued <- t.queued - 1;
  (match e with
  | Cross { uid; _ } -> Hashtbl.remove t.present.(p) uid
  | Single _ -> ());
  e

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
        ignore (pop t p : 'c entry);
        t.emitted_count <- t.emitted_count + 1;
        Probe.part_single ();
        t.emit { part = p; cross = false; uid = -1; cmd };
        progress := true
    | Some (Cross { uid; parts; cmd }) -> (
        match Hashtbl.find_opt t.emitted_cross uid with
        | Some left ->
            (* A hole left by a tie-break (or, under [no_barrier], by the
               designated stream racing ahead): already emitted, skip. *)
            ignore (pop t p : 'c entry);
            decr left;
            if !left = 0 then Hashtbl.remove t.emitted_cross uid;
            progress := true
        | None ->
            if t.no_barrier then
              if p = designated parts then begin
                (* Planted bug: no rendezvous — emit on designated-head sight,
                   ordered against other partitions only by arrival timing. *)
                let st = Hashtbl.find t.cross uid in
                ignore (pop t p : 'c entry);
                emit_cross t ~uid ~st ~consumed:1 cmd;
                progress := true
              end
              else begin
                (* Planted bug, other half: foreign occurrences are discarded
                   without waiting for the designated emission. *)
                let st = Hashtbl.find t.cross uid in
                st.dropped <- st.dropped + 1;
                ignore (pop t p : 'c entry);
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
                ignore (pop t p : 'c entry);
                emit_cross t ~uid ~st ~consumed:1 cmd;
                progress := true
              end
              else stop := true
            end
            else stop := true)
  done;
  !progress

(* Deadlock break.  At a rendezvous fixpoint every nonempty stream heads an
   unemitted cross command.  Build the waits-for graph over those heads —
   head X of stream p waits for the head of each touched stream q where X
   is queued behind — but only once {e every} head is fully seen (pushed
   into all its touched streams).  Waiting for complete information is
   what makes the break deterministic: the wedged head positions are a
   function of stream contents (natural progress is confluent), and with
   every head's copies present the whole graph — hence the victim — is
   too.  Breaking earlier, on a partially seen head set, would let the
   victim depend on which copies happened to arrive first (a sub-cycle
   confirmed at one replica can contain a larger member than the cycle the
   full head set forms — observed with 3 rotationally wedged crosses).
   The victim is the on-cycle head with the smallest [(ts, uid)]; its
   emission leaves holes. *)
let find_victim t =
  (* uid -> parts for each blocked head; bail out (wait for more arrivals)
     unless every nonempty stream heads a fully seen, unemitted cross. *)
  let heads = Hashtbl.create 8 in
  let complete = ref true in
  for p = 0 to t.partitions - 1 do
    match Queue.peek_opt t.streams.(p) with
    | None -> ()
    | Some (Cross { uid; parts; _ }) when not (Hashtbl.mem t.emitted_cross uid)
      -> (
        match Hashtbl.find_opt t.cross uid with
        | Some st when st.seen = Array.length st.parts ->
            if not (Hashtbl.mem heads uid) then Hashtbl.add heads uid parts
        | Some _ | None -> complete := false)
    | Some _ -> complete := false (* progress pending; not a wedge *)
  done;
  if not !complete then Hashtbl.reset heads;
  (* Successor uids of a head: the heads of touched streams it is queued
     behind.  An edge into a non-head or not-fully-seen command yields no
     node; cycles confined to eligible heads are what we detect. *)
  let succs uid parts =
    Array.to_list parts
    |> List.filter_map (fun q ->
           match Queue.peek_opt t.streams.(q) with
           | Some (Cross { uid = u; _ })
             when u <> uid && Hashtbl.mem t.present.(q) uid ->
               if Hashtbl.mem heads u then Some u else None
           | Some _ | None -> None)
  in
  (* A head lies on a cycle iff it can reach itself through the graph. *)
  let on_cycle uid =
    let visited = Hashtbl.create 8 in
    let rec walk u =
      let ps = try Hashtbl.find heads u with Not_found -> [||] in
      List.exists
        (fun v ->
          v = uid
          ||
          if Hashtbl.mem visited v then false
          else begin
            Hashtbl.add visited v ();
            walk v
          end)
        (succs u ps)
    in
    walk uid
  in
  let best = ref None in
  Hashtbl.iter
    (fun uid (_ : int array) ->
      if on_cycle uid then
        let st = Hashtbl.find t.cross uid in
        let key = (st.ts, uid) in
        match !best with
        | Some (k, _, _, _) when compare k key <= 0 -> ()
        | _ ->
            (* The victim's command payload lives at the head of the stream
               we found it on; fetch it from any stream where it heads. *)
            let cmd = ref None in
            Array.iter
              (fun q ->
                match Queue.peek_opt t.streams.(q) with
                | Some (Cross { uid = u; cmd = c; _ }) when u = uid ->
                    cmd := Some c
                | Some _ | None -> ())
              st.parts;
            best := Some (key, uid, st, Option.get !cmd))
    heads;
  !best

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

let push t ~part e =
  if part < 0 || part >= t.partitions then invalid_arg "Pmerge.push";
  let pos = t.pushed.(part) in
  t.pushed.(part) <- pos + 1;
  (match e with
  | Single _ -> ()
  | Cross { uid; parts; _ } ->
      if Array.length parts < 2 then
        invalid_arg "Pmerge.push: cross entry must touch >= 2 partitions";
      if Hashtbl.mem t.present.(part) uid then
        invalid_arg "Pmerge.push: duplicate cross uid in one stream";
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
      end;
      Hashtbl.replace t.present.(part) uid ());
  Queue.push e t.streams.(part);
  t.queued <- t.queued + 1;
  drain t
