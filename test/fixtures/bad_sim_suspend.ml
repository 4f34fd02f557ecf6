(* A blocking primitive outside Sim_sync: each way of reaching the engine's
   [suspend] — fully qualified, through a module alias, and through an
   [open] — is flagged. *)

module Engine = Psmr_sim.Engine

let park waiters = Engine.suspend (fun resume -> Queue.push resume waiters)

let park_qualified waiters =
  Psmr_sim.Engine.suspend (fun resume -> Queue.push resume waiters)

open Psmr_sim

let park_opened waiters = Engine.suspend (fun resume -> Queue.push resume waiters)

(* The other engine operations stay available. *)
let pause () = Engine.yield ()
