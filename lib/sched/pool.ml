(* Worker [i] is a simulated core, stable across respawns: a replacement
   keeps its id, so per-worker fault schedules address cores, not
   incarnations; [nth] counts the core's fetches, which the checker's
   logical crash points address.  Latch accounting: every thread of
   control that enters the loop either counts down (closed, or crashed for
   good) or hands its obligation to the replacement it spawns, so
   [shutdown] waits for exactly [workers] obligations. *)

open Psmr_platform

module Make (P : Platform_intf.S) = struct
  module Latch = Latch.Make (P)

  type t = {
    workers : int;
    fault : id:int -> nth:int -> Psmr_fault.Fault.worker_action;
    joined : Latch.t;
    submitted : int P.Atomic.t;
    executed : int P.Atomic.t;
    crashed : int P.Atomic.t;
  }

  let create ?fault ~workers () =
    let fault =
      match fault with
      | Some f -> f
      | None -> fun ~id ~nth:_ -> Psmr_fault.Fault.worker ~id
    in
    {
      workers;
      fault;
      joined = Latch.create workers;
      submitted = P.Atomic.make 0;
      executed = P.Atomic.make 0;
      crashed = P.Atomic.make 0;
    }

  let spawn t ~fetch ~requeue ~run =
    let rec loop i nth () =
      match fetch i with
      | None -> Latch.count_down t.joined
      | Some item -> (
          let nth = nth + 1 in
          match t.fault ~id:i ~nth with
          | Psmr_fault.Fault.Crash { respawn_after } -> (
              P.work Fault;
              requeue i item;
              ignore (P.Atomic.fetch_and_add t.crashed 1 : int);
              match respawn_after with
              | None -> Latch.count_down t.joined
              | Some d -> P.after d (loop i nth))
          | Stall d | Slow d ->
              P.work Fault;
              P.sleep d;
              run i item;
              loop i nth ()
          | Run ->
              run i item;
              loop i nth ())
    in
    for i = 1 to t.workers do
      P.spawn ~name:(Printf.sprintf "worker-%d" i) (loop i 0)
    done

  let count_submitted t n = ignore (P.Atomic.fetch_and_add t.submitted n : int)
  let count_executed t = ignore (P.Atomic.fetch_and_add t.executed 1 : int)
  let submitted t = P.Atomic.get t.submitted
  let executed t = P.Atomic.get t.executed
  let in_flight t = submitted t - executed t
  let crashed t = P.Atomic.get t.crashed

  let drain ?(poll = 1e-4) t =
    while executed t < submitted t do
      P.sleep poll
    done

  let shutdown ?poll t ~close =
    drain ?poll t;
    close ();
    Latch.wait t.joined
end
