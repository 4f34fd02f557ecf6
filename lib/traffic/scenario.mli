(** YCSB-style scenario family: the six core workloads (A update-heavy,
    B read-mostly, C read-only, D read-latest, E scan-heavy, F
    read-modify-write) as op mixes over a Zipfian key popularity,
    mapped onto the repo's kv/linked-list/bank services. *)

type name = A | B | C | D | E | F

val all : name list
val label : name -> string
(** ["ycsb_a"] .. ["ycsb_f"]. *)

val of_string : string -> name option
(** Accepts ["a"] or ["ycsb_a"] (any case). *)

type op =
  | Read of int
  | Update of int * int  (** key, value *)
  | Insert of int * int  (** key, value *)
  | Scan of int * int  (** start, length *)
  | Rmw of int * int  (** key, value *)

type spec = {
  scenario : name;
  records : int;  (** key universe size *)
  theta : float;  (** Zipf exponent; 0 = uniform *)
  read_pct : float;
  update_pct : float;
  insert_pct : float;
  scan_pct : float;
  rmw_pct : float;
  max_scan_len : int;  (** ≤ {!Psmr_app.Kv_store.max_scan_len} *)
}

val spec : ?records:int -> ?theta:float -> name -> spec
(** Defaults: 100_000 records, theta 0.99 (the standard YCSB zipfian
    constant). *)

type gen
(** Generation state: the alias-table sampler plus the insert frontier
    used by the read-latest and scan-heavy families. *)

val generator : spec -> gen

val next : gen -> Psmr_util.Rng.t -> op
(** Draw the next op.  All randomness comes from the supplied stream,
    so a fixed [(spec, rng stream)] pair replays identically. *)

val is_write : op -> bool

val footprint : op -> (int * bool) list
(** [(key, is_write)] pairs in scheduler shape; a scan lists every
    slot it reads. *)

val to_kv : op -> Psmr_app.Kv_store.command
val to_list : op -> Psmr_app.Linked_list.command
val to_bank : accounts:int -> op -> Psmr_app.Bank.command
val pp_op : Format.formatter -> op -> unit
