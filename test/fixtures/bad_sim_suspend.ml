(* A blocking primitive outside Sim_sync: each way of reaching the engine's
   [suspend] — fully qualified, through a module alias, through an [open],
   and through a local open of the engine itself — is flagged. *)

module Engine = Psmr_sim.Engine

let park waiters = Engine.suspend (fun resume -> Queue.push resume waiters)

let park_qualified waiters =
  Psmr_sim.Engine.suspend (fun resume -> Queue.push resume waiters)

open Psmr_sim

let park_opened waiters = Engine.suspend (fun resume -> Queue.push resume waiters)

(* The other engine operations stay available. *)
let pause () = Engine.yield ()

(* A local open of the engine rebinds the bare [suspend]. *)
let park_local_open waiters =
  Psmr_sim.Engine.(suspend (fun resume -> Queue.push resume waiters))

let park_let_open waiters =
  let open Psmr_sim.Engine in
  suspend (fun resume -> Queue.push resume waiters)
