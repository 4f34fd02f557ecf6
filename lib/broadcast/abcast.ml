(** Atomic broadcast: a leader-based (sequencer) total-order protocol for the
    crash failure model, in the style of Viewstamped Replication — the role
    BFT-SMaRt (configured for crash faults) plays in the paper's testbed.

    [n = 2f + 1] replicas; the leader of view [v] is replica [v mod n].
    Clients send requests to the leader (any replica forwards).  The leader
    cuts a batch as soon as fewer than [window] (four) of its batches are
    uncommitted: a command that arrives just after a cut leaves with the
    next batch, ahead of the previous batches' commits, where BFT-SMaRt
    would start the next consensus only once the previous one decides.
    [batch_max] and [batch_delay] cap a batch's size and age while the
    window is full.  The leader sequences each batch with a
    [Prepare], which each follower accepts and acknowledges with a
    [Prepare_ok].

    {b One commit rule.}  A replica commits a batch once it knows that
    [f + 1] replicas of the current view hold it: the leader holds every
    batch it proposes, a replica holds a batch once it has accepted it,
    and each [Prepare_ok] names one more holder.  A follower sends its
    [Prepare_ok] to the leader and to its [f - 1] ring successors (the
    next followers in id order, wrapping, the leader skipped).  The
    leader learns a quorum from the acknowledgements; a follower that
    accepts a batch knows the leader and itself, and its [f - 1] ring
    predecessors' acks make [f + 1] (a [Prepare_ok] for a view and seq
    means its sender accepted that seq in that view, whoever receives
    it).  So every replica commits two hops
    after the cut, and with [n = 3] (no ring peers) a follower commits on
    acceptance, one hop after it.  The leader's commit point, piggybacked
    on later [Prepare]s and sent eagerly in a [Commit], is the fallback
    when a ring ack is lost.
    Committed batches are handed to the delivery upcall in sequence order,
    giving the standard atomic-broadcast properties (validity, uniform
    agreement, uniform integrity, uniform total order).

    When followers stop hearing from the leader they start a view change:
    [Start_view_change] votes, then [Do_view_change] logs to the new leader,
    which adopts the log of the latest view any sender was Normal in (the
    longest of those) and resumes with [Start_view].  That is what makes
    the commit rule safe whoever applies it: a batch [f + 1] replicas hold
    in view [v] is in one log of every [f + 1] quorum, and every log from
    view [v] or later that such a quorum offers holds it at the same seq,
    so it is in every later view's log (Viewstamped Replication Revisited,
    section 4).  Knowing that [f + 1] hold it is therefore enough to
    deliver it, whichever replica knows it.

    {b Checkpointing.}  Replicas periodically broadcast the sequence number
    they have applied ([Applied]); every replica truncates its log below the
    quorum-stable point (the [f+1]-th highest report, further bounded by its
    own delivery point), so memory stays bounded on long runs.  Logs are
    exchanged as [(base, suffix)] pairs during view changes and merged with
    the receiver's own prefix; a replica that discovers a gap (possible only
    after message loss beyond the crash model, or extreme lag) asks the
    leader for retransmission with [Need_log].

    Threading contract: this module owns no threads.  The host replica feeds
    every incoming protocol message to {!handle} and calls {!tick}
    periodically from the same thread, so all state is single-threaded.
    The periodic tick enforces the [batch_delay] cap, on the first tick
    past a held batch's age; every other cut happens inside {!handle} or
    {!submit}.
    Outgoing messages go through the [send] closure supplied at creation. *)

open Psmr_platform

type 'c message =
  | Request of 'c array  (** client commands to order (client or forwarder) *)
  | Prepare of { view : int; seq : int; cmds : 'c array; committed : int }
  | Prepare_ok of { view : int; seq : int }
  | Commit of { view : int; committed : int }  (** also the heartbeat *)
  | Applied of { seq : int }  (** checkpoint report for log truncation *)
  | Need_log of { from_seq : int }  (** gap recovery request *)
  | Log_transfer of {
      view : int;
      base : int;
      log : 'c array array;
      committed : int;
    }
  | Start_view_change of { view : int }
  | Do_view_change of {
      view : int;
      last_normal : int;
      base : int;
      log : 'c array array;
      committed : int;
    }
  | Start_view of {
      view : int;
      base : int;
      log : 'c array array;
      committed : int;
    }

type config = {
  batch_max : int;  (** cut a batch at this many commands *)
  batch_delay : float;
      (** …or at this age, whichever first.  Both are caps: a batch is cut
          at once when the leader has room in its window of in-flight
          batches, so the age cut matters only while the window is full,
          and is enforced on the first periodic {!Make.tick} past the age *)
  heartbeat_interval : float;
  election_timeout : float;
  checkpoint_interval : int;
      (** broadcast an [Applied] report every this many delivered batches;
          0 disables checkpointing (the log then grows without bound) *)
}

let default_config =
  {
    batch_max = 64;
    batch_delay = 1e-3;
    heartbeat_interval = 20e-3;
    election_timeout = 150e-3;
    checkpoint_interval = 256;
  }

type status = Normal | View_change

let log_src = Logs.Src.create "psmr.abcast" ~doc:"Atomic broadcast protocol"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Probe = Psmr_obs.Probe

(* Uncommitted batches the leader keeps in flight before it holds new
   commands back; batches re-proposed after a view change count against
   it.  Four hide the Prepare/Prepare_ok rounds of earlier batches behind
   the next cut, so a command waits about half as long for its cut as
   with two; eight shorten the single-sequencer latency further but
   lengthen the partitioned stress p50 by about a quarter
   (EXPERIMENTS.md, "Four batches in flight").  A
   constant, not a [config] field: it changes when the leader cuts, not
   what any replica may deliver. *)
let window = 4

module Make (P : Platform_intf.S) = struct
  module IntSet = Set.Make (Int)

  type 'c t = {
    id : int;
    n : int;
    f : int;
    leader_offset : int;  (** rotates the view->leader map across instances *)
    config : config;
    send : int -> 'c message -> unit;
    deliver : 'c array -> unit;  (** upcall: one committed batch, in order *)
    mutable view : int;
    mutable status : status;
    log : 'c array Psmr_util.Vec.t;  (** suffix of the log, from [base] *)
    mutable base : int;  (** sequence number of [log]'s first entry *)
    mutable committed : int;  (** highest committed sequence, -1 initially *)
    mutable delivered : int;  (** highest delivered sequence, -1 initially *)
    acks : (int, IntSet.t) Hashtbl.t;  (** seq -> replicas that prepared it *)
    pending : 'c Psmr_util.Vec.t;  (** leader: commands awaiting a batch *)
    mutable batch_opened_at : float;
    pending_since : (float * int) Psmr_util.Vec.t;
        (** probes only: enqueue time and size of each run in [pending] *)
    mutable last_heartbeat : float;
    mutable last_leader_contact : float;
    applied_reports : int array;  (** per replica, highest Applied heard *)
    mutable last_report : int;  (** our last broadcast Applied seq *)
    mutable svc_votes : (int, IntSet.t) Hashtbl.t;  (** view -> voters *)
    mutable svc_echoed : int;  (** highest view we already voted for *)
    dvc : (int, (int * int * int * 'c array array * int) list) Hashtbl.t;
        (** view -> (sender, last_normal, base, log, committed) received as
            new leader *)
    mutable views_installed : int;  (** diagnostics: completed view changes *)
    mutable stalled : bool;  (** gap beyond recovery (needs state transfer) *)
  }

  let create ?(config = default_config) ?(leader_offset = 0) ~id ~n ~send
      ~deliver () =
    if n < 3 || n mod 2 = 0 then
      invalid_arg "Abcast.create: n must be odd and at least 3";
    if id < 0 || id >= n then invalid_arg "Abcast.create: id out of range";
    if leader_offset < 0 then
      invalid_arg "Abcast.create: leader_offset must be >= 0";
    {
      id;
      n;
      f = (n - 1) / 2;
      leader_offset = leader_offset mod n;
      config;
      send;
      deliver;
      view = 0;
      status = Normal;
      log = Psmr_util.Vec.create ();
      base = 0;
      committed = -1;
      delivered = -1;
      acks = Hashtbl.create 64;
      pending = Psmr_util.Vec.create ();
      batch_opened_at = 0.0;
      pending_since = Psmr_util.Vec.create ();
      last_heartbeat = 0.0;
      last_leader_contact = P.now ();
      applied_reports = Array.make n (-1);
      last_report = -1;
      svc_votes = Hashtbl.create 4;
      svc_echoed = 0;
      dvc = Hashtbl.create 4;
      views_installed = 0;
      stalled = false;
    }

  let leader_of t view = (view + t.leader_offset) mod t.n
  let leader t = leader_of t t.view
  let is_leader t = leader t = t.id
  let view t = t.view
  let views_installed t = t.views_installed
  let delivered_seq t = t.delivered
  let log_base t = t.base
  let is_stalled t = t.stalled

  (* First sequence number with no log entry. *)
  let log_end t = t.base + Psmr_util.Vec.length t.log
  let log_length t = Psmr_util.Vec.length t.log
  let log_get t seq = Psmr_util.Vec.get t.log (seq - t.base)
  let log_suffix t = Psmr_util.Vec.to_array t.log

  let others t = List.filter (fun r -> r <> t.id) (List.init t.n Fun.id)
  let send_all t msg = List.iter (fun r -> t.send r msg) (others t)

  (* A follower's ring successors: the next f - 1 replicas after it in id
     order, wrapping, with the leader skipped.  Each follower thus hears
     the acks of its f - 1 ring predecessors, which with the leader and
     itself make f + 1 holders.  Empty with n = 3. *)
  let ring_peers t =
    let leader = leader t in
    let rec from r k =
      if k = 0 then []
      else
        let r = (r + 1) mod t.n in
        if r = leader then from r k else r :: from r (k - 1)
    in
    from t.id (t.f - 1)

  (* --- checkpointing --- *)

  (* The stable point: at least f+1 replicas have applied everything up to
     (and including) it.  Our own deliveries bound truncation: entries we
     have not yet delivered are never dropped. *)
  let stable_seq t =
    let sorted = Array.copy t.applied_reports in
    Array.sort (fun a b -> compare b a) sorted;
    sorted.(t.f)

  let truncate_log t =
    let keep_from = min (stable_seq t) t.delivered in
    (* Drop entries strictly below [keep_from]. *)
    if keep_from > t.base then begin
      let drop = keep_from - t.base in
      let suffix =
        Array.init
          (log_length t - drop)
          (fun i -> Psmr_util.Vec.get t.log (i + drop))
      in
      Psmr_util.Vec.clear t.log;
      Array.iter (Psmr_util.Vec.push t.log) suffix;
      t.base <- keep_from;
      Log.debug (fun m ->
          m "replica %d truncated log below %d (%d entries retained)" t.id
            keep_from (log_length t))
    end

  let maybe_report_applied t =
    if
      t.config.checkpoint_interval > 0
      && t.delivered - t.last_report >= t.config.checkpoint_interval
    then begin
      t.last_report <- t.delivered;
      t.applied_reports.(t.id) <- t.delivered;
      send_all t (Applied { seq = t.delivered });
      truncate_log t
    end

  (* --- delivery --- *)

  (* Deliver every committed-but-undelivered batch, in order.  Each
     delivered command charges one [Hash] of work — the per-command log
     index/dedup bookkeeping every replica pays at delivery.  Visible only
     under the simulated cost model (no-op on the real and check
     platforms, and [Costs.zero] keeps protocol tests cost-free). *)
  let deliver_ready t =
    while
      (not t.stalled)
      && t.delivered < t.committed
      && t.delivered + 1 < log_end t
    do
      t.delivered <- t.delivered + 1;
      let cmds = log_get t t.delivered in
      Array.iter (fun _ -> P.work Hash) cmds;
      t.deliver cmds
    done;
    maybe_report_applied t

  (* Move the commit point to [seq], dropping the ack sets it passes: only
     seqs above the commit point keep one, so the table holds at most the
     uncommitted tail. *)
  let commit_to t seq =
    for s = t.committed + 1 to seq do
      Hashtbl.remove t.acks s
    done;
    t.committed <- seq

  let note_commit t committed =
    if committed > t.committed then begin
      (* Never mark commits beyond what we hold: with FIFO links from the
         leader this cannot regress deliveries. *)
      commit_to t (min committed (log_end t - 1));
      deliver_ready t
    end

  (* Pipeline-driven cut, with a window of [window] in-flight batches: the
     leader proposes as soon as fewer than [window] of its batches are
     uncommitted, on enqueue and on the commit that makes room.
     [batch_max] and [batch_delay] stay as caps while the window is full.
     After a view change the re-proposed uncommitted suffix counts against
     the window.  The commit rule, the view change and [Need_log] handle
     any number of uncommitted seqs; the window only bounds how many the
     leader proposes ahead of its commit point. *)
  let window_has_room t =
    t.status = Normal && is_leader t && log_end t - 1 - t.committed < window

  (* The one commit rule, for leader and followers alike: count [holders]
     as holding [seq] in the current view, and advance the commit point
     over the prefix whose seqs f + 1 known holders reached.  The leader
     knows itself (it holds every batch it proposes) and each
     [Prepare_ok]; a follower knows the leader and itself once it accepts
     a [Prepare], and each ring predecessor's [Prepare_ok].  With n = 3
     the first two are f + 1, so a follower commits what it accepts; with
     n >= 5 the f - 1 ring acks complete its quorum, and the leader's
     commit point covers a lost one. *)
  let rec record_holders t ~seq holders =
    if seq > t.committed then begin
      let cur = Option.value ~default:IntSet.empty (Hashtbl.find_opt t.acks seq) in
      Hashtbl.replace t.acks seq (List.fold_right IntSet.add holders cur)
    end;
    let before = t.committed in
    let rec advance () =
      let next = t.committed + 1 in
      match Hashtbl.find_opt t.acks next with
      | Some set when next < log_end t && IntSet.cardinal set > t.f ->
          commit_to t next;
          advance ()
      | Some _ | None -> ()
    in
    advance ();
    (* A leader sends the advanced commit point at once rather than leaving
       it to a later [Prepare] or a heartbeat: under bursty submission the
       next batch may be a heartbeat interval away, and follower delivery
       latency is on the critical path whenever a consumer synchronizes
       on deliveries across instances (the cross-partition rendezvous of
       {!Psmr_broadcast.Pmerge} most of all).  The commit may also have
       made room in the window: then cut what accumulated while it was
       full, and its [Prepare] carries the commit point in place of a
       [Commit]. *)
    if t.committed > before && is_leader t then begin
      if Psmr_util.Vec.length t.pending > 0 && window_has_room t then cut_batch t
      else send_all t (Commit { view = t.view; committed = t.committed });
      t.last_heartbeat <- P.now ()
    end;
    deliver_ready t

  (* Leader: seal the pending commands into a numbered batch and replicate. *)
  and cut_batch t =
    if Psmr_util.Vec.length t.pending > 0 then begin
      let cmds = Psmr_util.Vec.to_array t.pending in
      Psmr_util.Vec.clear t.pending;
      Probe.abcast_batch (Array.length cmds);
      if Probe.enabled () then begin
        let now = Probe.now () in
        Psmr_util.Vec.iter
          (fun (at, k) ->
            for _ = 1 to k do
              Probe.abcast_cut_wait (now -. at)
            done)
          t.pending_since
      end;
      Psmr_util.Vec.clear t.pending_since;
      let seq = log_end t in
      Psmr_util.Vec.push t.log cmds;
      record_holders t ~seq [ t.id ];
      send_all t (Prepare { view = t.view; seq; cmds; committed = t.committed })
    end

  (* Sequencer-side ingestion: each command the leader accepts for
     ordering charges one [Marshal] of work — request deserialization,
     batch serialization and the (n-1)-fold fan-out all scale per command
     on the leader's thread, and this charge is what makes the sequencer
     the CPU bottleneck the partitioned grid measures against
     (lib/harness/part_bench.ml).  Followers only pay the per-command
     delivery [Hash] above. *)
  let enqueue_commands t cmds =
    if Psmr_util.Vec.length t.pending = 0 then t.batch_opened_at <- P.now ();
    if Probe.enabled () then
      Psmr_util.Vec.push t.pending_since (Probe.now (), Array.length cmds);
    Array.iter
      (fun c ->
        P.work Marshal;
        Psmr_util.Vec.push t.pending c)
      cmds;
    if Psmr_util.Vec.length t.pending >= t.config.batch_max || window_has_room t
    then cut_batch t

  (* --- log adoption (view changes and transfers) --- *)

  (* Merge an incoming (base, suffix) log into ours: keep our own prefix
     below the incoming base (prefix-consistency makes it identical to the
     sender's), adopt the incoming entries from there.  Returns false if a
     gap separates our log from the incoming base — recoverable only by
     state transfer, so the replica stalls rather than diverge. *)
  let adopt_log t in_base (in_log : 'c array array) =
    if in_base <= t.base then begin
      (* The incoming log covers ours entirely. *)
      if in_base + Array.length in_log >= t.base then begin
        Psmr_util.Vec.clear t.log;
        Array.iter (Psmr_util.Vec.push t.log) in_log;
        t.base <- in_base;
        true
      end
      else false (* incoming log ends before our base even starts: gap *)
    end
    else if in_base <= log_end t then begin
      (* Keep our [t.base, in_base) prefix, then the incoming suffix. *)
      let prefix = Array.init (in_base - t.base) (fun i -> Psmr_util.Vec.get t.log i) in
      Psmr_util.Vec.clear t.log;
      Array.iter (Psmr_util.Vec.push t.log) prefix;
      Array.iter (Psmr_util.Vec.push t.log) in_log;
      true
    end
    else false (* our log ends before the incoming base: gap *)

  (* --- view change --- *)

  let start_view_change t new_view =
    if new_view > t.view || (new_view = t.view && t.status = View_change) then begin
      t.status <- View_change;
      t.last_leader_contact <- P.now ();
      if new_view > t.svc_echoed then begin
        t.svc_echoed <- new_view;
        Log.info (fun m ->
            m "replica %d suspects leader of view %d; voting for view %d" t.id
              t.view new_view);
        send_all t (Start_view_change { view = new_view })
      end;
      (* Count our own vote. *)
      let cur =
        Option.value ~default:IntSet.empty (Hashtbl.find_opt t.svc_votes new_view)
      in
      Hashtbl.replace t.svc_votes new_view (IntSet.add t.id cur)
    end

  let maybe_send_do_view_change t new_view =
    match Hashtbl.find_opt t.svc_votes new_view with
    | Some votes when IntSet.cardinal votes >= t.f + 1 ->
        let dst = leader_of t new_view in
        if dst = t.id then begin
          (* Deliver to ourselves directly. *)
          let entry = (t.id, t.view, t.base, log_suffix t, t.committed) in
          let cur = Option.value ~default:[] (Hashtbl.find_opt t.dvc new_view) in
          if not (List.exists (fun (s, _, _, _, _) -> s = t.id) cur) then
            Hashtbl.replace t.dvc new_view (entry :: cur)
        end
        else
          t.send dst
            (Do_view_change
               {
                 view = new_view;
                 last_normal = t.view;
                 base = t.base;
                 log = log_suffix t;
                 committed = t.committed;
               })
    | Some _ | None -> ()

  let install_view t new_view in_base in_log committed =
    if adopt_log t in_base in_log then begin
      t.view <- new_view;
      t.status <- Normal;
      t.views_installed <- t.views_installed + 1;
      t.last_leader_contact <- P.now ();
      Log.info (fun m ->
          m "replica %d installed view %d (leader %d, committed %d)" t.id
            new_view (leader_of t new_view) t.committed);
      Hashtbl.reset t.acks;
      if committed > t.committed then t.committed <- min committed (log_end t - 1);
      deliver_ready t;
      true
    end
    else begin
      (* A gap we cannot fill from the incoming log: ask the new leader for
         everything we miss and stall deliveries until it arrives. *)
      t.send (leader_of t new_view) (Need_log { from_seq = log_end t });
      t.stalled <- true;
      Log.warn (fun m ->
          m "replica %d: log gap at view %d (have up to %d, offered base %d); \
             requesting transfer"
            t.id new_view (log_end t) in_base);
      false
    end

  (* New leader: once f+1 Do_view_change messages (ours included) arrived,
     adopt the log of the latest view any of them was Normal in, the
     longest such log on a tie (the first received on a further tie), and
     announce the view.  [t.view] only moves when a view is installed, so
     it is the last view its replica was Normal in.  The latest view's
     longest log holds every batch that f + 1 replicas accepted in an
     earlier view.  A longer log from an older view may hold batches a
     later view never saw, in seqs that view has since filled and
     delivered: adopting it would break total order. *)
  let maybe_become_leader t new_view =
    if leader_of t new_view = t.id then
      match Hashtbl.find_opt t.dvc new_view with
      | Some (first :: _ as entries) when List.length entries >= t.f + 1 ->
          let rank (_, last_normal, base, log, _) =
            (last_normal, base + Array.length log)
          in
          let _, _, best_base, best_log, _ =
            List.fold_left
              (fun best e -> if compare (rank e) (rank best) > 0 then e else best)
              first entries
          in
          let best_committed =
            List.fold_left (fun c (_, _, _, _, ec) -> max c ec) (-1) entries
          in
          Hashtbl.remove t.dvc new_view;
          if install_view t new_view best_base best_log best_committed then begin
            send_all t
              (Start_view
                 {
                   view = new_view;
                   base = t.base;
                   log = log_suffix t;
                   committed = t.committed;
                 });
            (* Re-propose the uncommitted suffix under the new view. *)
            for seq = t.committed + 1 to log_end t - 1 do
              let cmds = log_get t seq in
              record_holders t ~seq [ t.id ];
              send_all t
                (Prepare { view = t.view; seq; cmds; committed = t.committed })
            done
          end
      | Some _ | None -> ()

  (* --- message handling --- *)

  let handle t ~src msg =
    match msg with
    | Request cmds ->
        if t.status = Normal then
          if is_leader t then enqueue_commands t cmds
          else t.send (leader t) (Request cmds)
    | Prepare { view; seq; cmds; committed } ->
        if view = t.view && t.status = Normal && not (is_leader t) then begin
          t.last_leader_contact <- P.now ();
          (* FIFO links from the leader make [seq] dense; tolerate re-sent
             prefixes after a view change. *)
          if seq = log_end t then Psmr_util.Vec.push t.log cmds
          else if seq >= t.base && seq < log_end t then
            Psmr_util.Vec.set t.log (seq - t.base) cmds
          else if seq > log_end t then
            (* A gap: possible only outside the reliable-FIFO envelope.
               Request retransmission. *)
            t.send src (Need_log { from_seq = log_end t });
          if seq < log_end t then begin
            let ok = Prepare_ok { view; seq } in
            t.send src ok;
            List.iter (fun r -> t.send r ok) (ring_peers t);
            record_holders t ~seq [ leader t; t.id ];
            note_commit t committed
          end
        end
    | Prepare_ok { view; seq } ->
        if view = t.view && t.status = Normal then record_holders t ~seq [ src ]
    | Commit { view; committed } ->
        if view = t.view && t.status = Normal && not (is_leader t) then begin
          t.last_leader_contact <- P.now ();
          note_commit t committed;
          (* The leader committed entries we never received (their Prepares
             were lost): fetch the missing tail. *)
          if committed >= log_end t then
            t.send src (Need_log { from_seq = log_end t })
        end
        else if view > t.view then
          (* A view was installed without us (we were cut off when its
             Start_view went out): fetch its log past our commit point. *)
          t.send src (Need_log { from_seq = t.committed + 1 })
    | Applied { seq } ->
        if seq > t.applied_reports.(src) then begin
          t.applied_reports.(src) <- seq;
          truncate_log t
        end
    | Need_log { from_seq } ->
        (* Send everything we hold from the requested point. *)
        let start = max from_seq t.base in
        if start < log_end t then begin
          let entries =
            Array.init (log_end t - start) (fun i -> log_get t (start + i))
          in
          t.send src
            (Log_transfer
               { view = t.view; base = start; log = entries; committed = t.committed })
        end
    | Log_transfer { view; base; log; committed } ->
        if view >= t.view then begin
          (* A later view's log replaces our uncommitted suffix, which may
             hold batches only an older view's leader proposed. *)
          if view > t.view then
            while log_end t > t.committed + 1 && log_end t > t.base do
              ignore (Psmr_util.Vec.pop t.log : 'c array option)
            done;
          if adopt_log t base log then begin
            t.stalled <- false;
            if view > t.view then begin
              t.view <- view;
              t.status <- Normal;
              (* The new view's leader just answered: restart the failure
                 detector, as installing a view does.  A deposed leader
                 never refreshed it, so it would otherwise suspect the new
                 leader at its next tick and start one more view. *)
              t.last_leader_contact <- P.now ();
              (* Holders count within one view only. *)
              Hashtbl.reset t.acks
            end;
            note_commit t committed;
            deliver_ready t
          end
          else
            (* The sender itself truncated past our gap: only a service
               snapshot could bring us back.  Stall rather than diverge
               (crash-stop model: we count as slow, not faulty). *)
            t.stalled <- true
        end
    | Start_view_change { view } ->
        if view > t.view || (view = t.view && t.status = View_change) then begin
          start_view_change t view;
          let cur =
            Option.value ~default:IntSet.empty (Hashtbl.find_opt t.svc_votes view)
          in
          Hashtbl.replace t.svc_votes view (IntSet.add src cur);
          maybe_send_do_view_change t view;
          maybe_become_leader t view
        end
    | Do_view_change { view; last_normal; base; log; committed } ->
        (* Only while the view is still to install: a late one for the
           view we lead already would re-add our own entry (the install
           removed the view's entries) and install it again. *)
        if
          (view > t.view || (view = t.view && t.status = View_change))
          && leader_of t view = t.id
        then begin
          let cur = Option.value ~default:[] (Hashtbl.find_opt t.dvc view) in
          if not (List.exists (fun (s, _, _, _, _) -> s = src) cur) then
            Hashtbl.replace t.dvc view
              ((src, last_normal, base, log, committed) :: cur);
          (* Make sure our own log is counted. *)
          start_view_change t view;
          maybe_send_do_view_change t view;
          maybe_become_leader t view
        end
    | Start_view { view; base; log; committed } ->
        if view > t.view || (view = t.view && t.status = View_change) then
          ignore (install_view t view base log committed : bool)

  (* Fast-forward past a gap using an externally obtained service snapshot
     taken at [seq]: everything at or below [seq] is considered delivered
     and the log restarts empty at [seq + 1].  No-op unless it advances the
     delivery point. *)
  let install_snapshot t ~seq =
    if seq > t.delivered then begin
      Psmr_util.Vec.clear t.log;
      Psmr_util.Vec.clear t.pending;
      Psmr_util.Vec.clear t.pending_since;
      t.base <- seq + 1;
      t.delivered <- seq;
      if t.committed < seq then t.committed <- seq;
      Hashtbl.reset t.acks;
      t.stalled <- false;
      t.applied_reports.(t.id) <- max t.applied_reports.(t.id) seq;
      t.last_report <- max t.last_report seq;
      Log.info (fun m ->
          m "replica %d fast-forwarded to seq %d via snapshot" t.id seq)
    end

  (* Periodic duties: the batch age cap and heartbeats for the leader,
     failure detection for followers.  Call at a granularity finer than
     the configured delays (the host replica drives this).  The batch cut
     here is the age cap on a batch held behind a full window; a batch
     that found room was already cut on enqueue or commit. *)
  let tick t =
    let now = P.now () in
    if t.status = Normal then begin
      if is_leader t then begin
        if
          Psmr_util.Vec.length t.pending > 0
          && now -. t.batch_opened_at >= t.config.batch_delay
        then cut_batch t;
        if now -. t.last_heartbeat >= t.config.heartbeat_interval then begin
          t.last_heartbeat <- now;
          send_all t (Commit { view = t.view; committed = t.committed });
          (* Lossy links: a dropped Prepare or Prepare_ok would otherwise
             stall commitment forever, so re-propose a bounded window of
             the uncommitted tail each heartbeat.  Receivers overwrite
             idempotently and re-ack, so this is safe under any loss or
             duplication pattern and a no-op once everything commits. *)
          let stop = min (log_end t - 1) (t.committed + 16) in
          for seq = max (t.committed + 1) t.base to stop do
            send_all t
              (Prepare
                 { view = t.view; seq; cmds = log_get t seq; committed = t.committed })
          done
        end
      end
      else if now -. t.last_leader_contact > t.config.election_timeout then begin
        start_view_change t (t.view + 1);
        maybe_send_do_view_change t (t.view + 1);
        maybe_become_leader t (t.view + 1)
      end
    end
    else if now -. t.last_leader_contact > t.config.election_timeout then begin
      (* The view change itself stalled (the would-be leader crashed too):
         escalate to the next view. *)
      start_view_change t (t.view + 1);
      maybe_send_do_view_change t (t.view + 1);
      maybe_become_leader t (t.view + 1)
    end

  (* Local submission path, used by a replica to order commands it
     originates (e.g. client requests received directly). *)
  let submit t cmds =
    if is_leader t && t.status = Normal then enqueue_commands t cmds
    else t.send (leader t) (Request cmds)
end
