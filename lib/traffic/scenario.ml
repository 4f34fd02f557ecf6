(** YCSB-style scenario family.

    The six core YCSB workloads, expressed as op mixes over a Zipfian
    key popularity (the standard theta = 0.99 "zipfian constant"
    default) and mapped onto the repo's services.  A scenario is a pure
    spec; a {!gen} adds the mutable generation state (alias-table
    sampler, insert frontier for the read-latest/scan families) and
    draws ops from a caller-supplied RNG stream — typically a
    per-session stream from {!Session}, so replays are bit-identical.

    | name | mix                     | distribution      |
    |------|-------------------------|-------------------|
    | A    | 50% read / 50% update   | zipfian           |
    | B    | 95% read / 5% update    | zipfian           |
    | C    | 100% read               | zipfian           |
    | D    | 95% read / 5% insert    | latest            |
    | E    | 95% scan / 5% insert    | zipfian (+latest) |
    | F    | 50% read / 50% RMW      | zipfian           | *)

module Rng = Psmr_util.Rng
module Zipf = Psmr_workload.Workload.Zipf

type name = A | B | C | D | E | F

let all = [ A; B; C; D; E; F ]

let label = function
  | A -> "ycsb_a"
  | B -> "ycsb_b"
  | C -> "ycsb_c"
  | D -> "ycsb_d"
  | E -> "ycsb_e"
  | F -> "ycsb_f"

let of_string s =
  match String.lowercase_ascii s with
  | "a" | "ycsb_a" -> Some A
  | "b" | "ycsb_b" -> Some B
  | "c" | "ycsb_c" -> Some C
  | "d" | "ycsb_d" -> Some D
  | "e" | "ycsb_e" -> Some E
  | "f" | "ycsb_f" -> Some F
  | _ -> None

type op =
  | Read of int
  | Update of int * int
  | Insert of int * int
  | Scan of int * int
  | Rmw of int * int

type spec = {
  scenario : name;
  records : int;  (** key universe size *)
  theta : float;  (** Zipf exponent; 0 = uniform *)
  read_pct : float;
  update_pct : float;
  insert_pct : float;
  scan_pct : float;
  rmw_pct : float;
  max_scan_len : int;
}

let default_records = 100_000

(** The standard YCSB zipfian constant. *)
let default_theta = 0.99

let mix = function
  | A -> (50.0, 50.0, 0.0, 0.0, 0.0)
  | B -> (95.0, 5.0, 0.0, 0.0, 0.0)
  | C -> (100.0, 0.0, 0.0, 0.0, 0.0)
  | D -> (95.0, 0.0, 5.0, 0.0, 0.0)
  | E -> (0.0, 0.0, 5.0, 95.0, 0.0)
  | F -> (50.0, 0.0, 0.0, 0.0, 50.0)

let spec ?(records = default_records) ?(theta = default_theta) scenario =
  if records <= 0 then invalid_arg "Scenario.spec: records must be positive";
  if theta < 0.0 then invalid_arg "Scenario.spec: negative theta";
  let read_pct, update_pct, insert_pct, scan_pct, rmw_pct = mix scenario in
  let max_scan_len = min Psmr_app.Kv_store.max_scan_len records in
  {
    scenario;
    records;
    theta;
    read_pct;
    update_pct;
    insert_pct;
    scan_pct;
    rmw_pct;
    max_scan_len;
  }

type gen = {
  spec : spec;
  zipf : Zipf.t;
  mutable frontier : int;
      (** next insert position (mod records) for the latest families *)
}

let generator spec =
  {
    spec;
    zipf = Zipf.create ~n:spec.records ~theta:spec.theta;
    (* Start mid-universe so "latest" reads have history behind them. *)
    frontier = spec.records / 2;
  }

(* A fresh value for a write; drawn from the op stream so replays are
   value-identical too. *)
let fresh_value rng = Rng.int rng 1_000_000

(* Zipf rank 0 is the most popular key.  For the "latest" distribution
   the most popular key is the most recently inserted one: popularity
   rank r maps to the key r positions behind the frontier. *)
let latest_key g rank =
  let k = (g.frontier - 1 - rank) mod g.spec.records in
  if k < 0 then k + g.spec.records else k

let insert g rng =
  let k = g.frontier mod g.spec.records in
  g.frontier <- (g.frontier + 1) mod g.spec.records;
  Insert (k, fresh_value rng)

(** Draw the next op.  All randomness comes from [rng], so a fixed
    [(spec, rng stream)] pair replays an identical op sequence. *)
let next g rng =
  let s = g.spec in
  let u = Rng.float rng 100.0 in
  let latest = s.scenario = D in
  let key () =
    let rank = Zipf.sample g.zipf rng in
    if latest then latest_key g rank else rank
  in
  if u < s.read_pct then Read (key ())
  else if u < s.read_pct +. s.update_pct then Update (key (), fresh_value rng)
  else if u < s.read_pct +. s.update_pct +. s.insert_pct then insert g rng
  else if u < s.read_pct +. s.update_pct +. s.insert_pct +. s.scan_pct then begin
    let len = 1 + Rng.int rng s.max_scan_len in
    let start = min (Zipf.sample g.zipf rng) (s.records - len) in
    Scan (start, len)
  end
  else Rmw (key (), fresh_value rng)

let is_write = function
  | Read _ | Scan _ -> false
  | Update _ | Insert _ | Rmw _ -> true

(** The op's key footprint, in the same [(key, is_write)] shape the
    schedulers consume.  An RMW reads and writes one key, so its
    footprint is the write footprint. *)
let footprint = function
  | Read k -> [ (k, false) ]
  | Update (k, _) | Insert (k, _) | Rmw (k, _) -> [ (k, true) ]
  | Scan (s, len) -> List.init len (fun i -> (s + i, false))

(** Mapping onto the kv service.  RMW becomes a [Put] (same footprint:
    the read is of the written key); the kv service has no compound
    read-modify-write command. *)
let to_kv = function
  | Read k -> Psmr_app.Kv_store.Get k
  | Update (k, v) | Insert (k, v) | Rmw (k, v) -> Psmr_app.Kv_store.Put (k, v)
  | Scan (s, len) -> Psmr_app.Kv_store.Scan (s, len)

(** Mapping onto the readers-writers linked list (point ops only:
    scans read the whole-structure variable, i.e. [Contains]). *)
let to_list = function
  | Read k | Scan (k, _) -> Psmr_app.Linked_list.Contains k
  | Update (k, _) | Insert (k, _) | Rmw (k, _) -> Psmr_app.Linked_list.Add k

(** Mapping onto the bank service: reads are balance queries, writes
    deposit into the account; an RMW transfers to the account's
    neighbour (read src + write both, chain-structured conflicts). *)
let to_bank ~accounts op =
  let a k = k mod accounts in
  match op with
  | Read k | Scan (k, _) -> Psmr_app.Bank.Balance (a k)
  | Update (k, v) | Insert (k, v) ->
      Psmr_app.Bank.Deposit (a k, v mod 100)
  | Rmw (k, _) ->
      Psmr_app.Bank.Transfer { src = a k; dst = a (k + 1); amount = 1 }
