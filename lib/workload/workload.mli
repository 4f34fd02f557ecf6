(** Workload specification and generation following the paper's §7.2: the
    readers-and-writers linked-list service with light/moderate/heavy
    execution costs (initial list sizes 1k/10k/100k) and a configurable
    write percentage; uniform targets, plus a Zipf sampler for skewed
    extension workloads. *)

type cost_class = Light | Moderate | Heavy

val all_costs : cost_class list
val cost_label : cost_class -> string
val cost_of_string : string -> cost_class option

val list_size : cost_class -> int
(** Initial list size: 1_000, 10_000 or 100_000. *)

type spec = {
  write_pct : float;  (** 0..100: fraction of [Add] operations *)
  cost : cost_class;
}

val paper_write_percentages : float list
(** X axis of Figures 3 and 5: 0, 1, 5, 10, 15, 20, 25, 50, 100. *)

val paper_worker_counts : int list
(** X axis of Figures 2 and 4: 1..64 as in the paper. *)

val next_list_command :
  spec -> Psmr_util.Rng.t -> Psmr_app.Linked_list.command
(** Draw the next command: uniform target, read or write per
    [spec.write_pct]. *)

val generate_trace :
  spec -> Psmr_util.Rng.t -> int -> Psmr_app.Linked_list.command array

(** Keyed workloads for the early-scheduling experiments: explicit
    [(key, is_write)] footprints over a configurable key universe, with a
    cross-key command fraction and an optimistic mis-speculation rate. *)
module Keyed : sig
  type spec = {
    keys : int;  (** key universe size *)
    write_pct : float;  (** 0..100: fraction of writes *)
    cross_pct : float;  (** 0..100: fraction of two-key commands *)
    cost : cost_class;  (** execution-cost class per command *)
    mis_pct : float;  (** 0..100: optimistic mis-speculation rate *)
  }

  val low_conflict : spec
  (** 4096 keys, 10% writes, 2% cross-key, light cost, no mis-speculation:
      the acceptance workload where a per-worker class map keeps almost
      every command conflict-free. *)

  val pp : Format.formatter -> spec -> unit

  val next_footprint : spec -> Psmr_util.Rng.t -> (int * bool) list
  (** One uniformly random key, read or write per [write_pct]; with
      probability [cross_pct] a second random key in the same mode. *)
end

(** Zipf-distributed key sampler (Walker/Vose alias tables: O(n) setup,
    O(1) per sample, so 10^6+-key universes sample at uniform-pick cost). *)
module Zipf : sig
  type t

  val create : n:int -> theta:float -> t
  (** [theta = 0] is uniform; larger values are more skewed. *)

  val sample : t -> Psmr_util.Rng.t -> int
  (** A rank in [0, n): rank 0 is the most popular. *)
end
