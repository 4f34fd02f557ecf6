(* The rendezvous a cross-class command synchronizes on.  Exclusive mode:
   every involved worker arrives with its token, the designated worker
   executes while the others wait, and completion releases everyone.
   Shared mode (read-only commands): arrivals never block; the last
   arriver executes and completion wakes anyone awaiting it.  One mutex +
   condition per barrier; spurious wakeups are handled by predicate
   loops. *)

open Psmr_platform

module Make (P : Platform_intf.S) = struct
  type t = {
    size : int;
    designated : int option;  (* [None] = shared *)
    mutable arrived : int;
    mutable completed : bool;
    m : P.Mutex.t;
    cv : P.Condition.t;
  }

  let make ~size designated =
    if size < 2 then invalid_arg "Barrier.create: size must be >= 2";
    {
      size;
      designated;
      arrived = 0;
      completed = false;
      m = P.Mutex.create ();
      cv = P.Condition.create ();
    }

  let create ~size ~designated = make ~size (Some designated)
  let create_shared ~size = make ~size None

  let arrive t ~worker =
    P.Mutex.lock t.m;
    t.arrived <- t.arrived + 1;
    let r =
      match t.designated with
      | None -> if t.arrived = t.size then `Execute else `Pass
      | Some d ->
          if t.arrived = t.size then P.Condition.broadcast t.cv;
          if worker = d then begin
            while t.arrived < t.size do
              P.Condition.wait t.cv t.m
            done;
            `Execute
          end
          else begin
            while not t.completed do
              P.Condition.wait t.cv t.m
            done;
            `Done
          end
    in
    P.Mutex.unlock t.m;
    r

  let complete t =
    P.Mutex.lock t.m;
    t.completed <- true;
    P.Condition.broadcast t.cv;
    P.Mutex.unlock t.m

  let await t =
    P.Mutex.lock t.m;
    while not t.completed do
      P.Condition.wait t.cv t.m
    done;
    P.Mutex.unlock t.m

  (* Lock-free advisory reads for diagnostics and oracles. *)
  let size t = t.size
  let designated t = t.designated
  let arrived t = t.arrived
  let completed t = t.completed
end
