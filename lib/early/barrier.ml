(* The rendezvous a cross-class write synchronizes on: every involved
   worker arrives with its token, the designated worker executes while
   the others wait, and completion releases everyone.  One mutex +
   condition per barrier; spurious wakeups are handled by predicate
   loops. *)

open Psmr_platform

module Make (P : Platform_intf.S) = struct
  type t = {
    size : int;
    designated : int;
    mutable arrived : int;
    mutable completed : bool;
    m : P.Mutex.t;
    cv : P.Condition.t;
  }

  let create ~size ~designated =
    if size < 2 then invalid_arg "Barrier.create: size must be >= 2";
    {
      size;
      designated;
      arrived = 0;
      completed = false;
      m = P.Mutex.create ();
      cv = P.Condition.create ();
    }

  let arrive t ~worker =
    P.Mutex.lock t.m;
    t.arrived <- t.arrived + 1;
    if t.arrived = t.size then P.Condition.broadcast t.cv;
    let r =
      if worker = t.designated then begin
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

  (* Lock-free advisory reads for diagnostics and oracles. *)
  let size t = t.size
  let designated t = t.designated
  let arrived t = t.arrived
  let completed t = t.completed
end
