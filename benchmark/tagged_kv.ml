(** The benchmark's service: {!Psmr_app.Kv_store} with every command tagged
    by its benchmark-wide id.  Each replica's instance charges simulated CPU
    per command and records, per command id, when the replica first started
    and last finished executing it, the response it produced, and per key
    the order of writes — the evidence the correctness checks and the stage
    decomposition are computed from.  Footprints and conflicts are the
    wrapped store's, so scheduling is unchanged by the tag. *)

module Kv = Psmr_app.Kv_store

type command = { id : int; op : Kv.command }
type response = Kv.response

(** What one replica executed. *)
type record = {
  first_start : float Grow.t;  (** virtual time; [nan] = never executed *)
  last_end : float Grow.t;
  resp : int Grow.t;  (** {!digest} of the response; [-1] = none *)
  writes : int list array;  (** per key, ids of writes, newest first *)
  mutable execs : int;  (** executions, re-executions after undo included *)
}

type t = {
  kv : Kv.t;
  cpu : Psmr_sim.Sim_sync.Cpu.t;
  now : unit -> float;
  record : record;
}

let create ~records ~now =
  let kv = Kv.create ~capacity:records in
  (* YCSB load phase: every record exists before the first operation. *)
  for k = 0 to records - 1 do
    ignore (Kv.execute kv (Kv.Put (k, k)) : response)
  done;
  {
    kv;
    cpu = Psmr_sim.Sim_sync.Cpu.create ~cores:Pinned.cores;
    now;
    record =
      {
        first_start = Grow.create Float.nan;
        last_end = Grow.create Float.nan;
        resp = Grow.create (-1);
        writes = Array.make records [];
        execs = 0;
      };
  }

let cost = function
  | Kv.Get _ -> Pinned.read_cost
  | Kv.Put _ -> Pinned.write_cost
  | Kv.Scan (_, len) -> float_of_int len *. Pinned.read_cost

(** A response's hash, over every element of a scan; kept instead of the
    response, which for scans would dominate the benchmark's memory. *)
let digest (r : response) = Hashtbl.hash_param 256 256 r

(* Stamp the start, take a core for the command's cost (waiting for one
   included), apply it, stamp the end. *)
let run t c apply =
  let r = t.record in
  if Float.is_nan (Grow.get r.first_start c.id) then
    Grow.set r.first_start c.id (t.now ());
  Psmr_sim.Sim_sync.Cpu.use t.cpu (cost c.op);
  let ((resp, _) as result) = apply t.kv c.op in
  Grow.set r.last_end c.id (t.now ());
  Grow.set r.resp c.id (digest resp);
  r.execs <- r.execs + 1;
  (match c.op with
  | Kv.Put (k, _) -> r.writes.(k) <- c.id :: r.writes.(k)
  | Kv.Get _ | Kv.Scan _ -> ());
  result

let execute t c = fst (run t c (fun kv op -> (Kv.execute kv op, ())))

type undo = { inner : Kv.undo; cmd : command }

let execute_undoable t c =
  let resp, inner = run t c Kv.execute_undoable in
  (resp, { inner; cmd = c })

(* Undo records arrive newest first, so an undone write is the head of its
   key's record. *)
let undo t u =
  Kv.undo t.kv u.inner;
  let r = t.record in
  match u.cmd.op with
  | Kv.Put (k, _) -> (
      match r.writes.(k) with
      | id :: rest when id = u.cmd.id -> r.writes.(k) <- rest
      | _ ->
          failwith
            (Printf.sprintf
               "Tagged_kv.undo: command %d is not key %d's last write" u.cmd.id
               k))
  | Kv.Get _ | Kv.Scan _ -> ()

let snapshot t = Kv.snapshot t.kv
let restore t s = Kv.restore t.kv s
let footprint c = Kv.footprint c.op
let conflict a b = Kv.conflict a.op b.op
let pp_command ppf c = Format.fprintf ppf "#%d:%a" c.id Kv.pp_command c.op
let pp_response = Kv.pp_response
