(** Workload specification and generation, following the paper's §7.2.

    The evaluation service is the readers-and-writers linked list.  A
    workload is a percentage of writes and an execution-cost class given by
    the initial list size: light (1k entries), moderate (10k) and heavy
    (100k).  Operation targets are uniformly random positions in the
    list. *)

type cost_class = Light | Moderate | Heavy

let all_costs = [ Light; Moderate; Heavy ]

let cost_label = function
  | Light -> "light"
  | Moderate -> "moderate"
  | Heavy -> "heavy"

let cost_of_string s =
  match String.lowercase_ascii s with
  | "light" -> Some Light
  | "moderate" -> Some Moderate
  | "heavy" -> Some Heavy
  | _ -> None

(** Initial list size for a cost class (§7.2: 1k, 10k, 100k). *)
let list_size = function Light -> 1_000 | Moderate -> 10_000 | Heavy -> 100_000

type spec = {
  write_pct : float;  (** 0..100: fraction of [Add] operations *)
  cost : cost_class;
}

(** The paper's write percentages for Figures 3 and 5. *)
let paper_write_percentages = [ 0.; 1.; 5.; 10.; 15.; 20.; 25.; 50.; 100. ]

(** The paper's worker counts for Figures 2 and 4. *)
let paper_worker_counts = [ 1; 2; 4; 6; 8; 10; 12; 16; 24; 32; 40; 48; 56; 64 ]

(** Draw the next linked-list command: a uniformly random entry, read or
    write according to [spec.write_pct]. *)
let next_list_command spec rng =
  let target = Psmr_util.Rng.int rng (list_size spec.cost) in
  if Psmr_util.Rng.below_percent rng spec.write_pct then
    Psmr_app.Linked_list.Add target
  else Psmr_app.Linked_list.Contains target

(** Pre-generate a command trace (e.g. to spare generation cost inside a
    measured loop, as the paper does). *)
let generate_trace spec rng n = Array.init n (fun _ -> next_list_command spec rng)

(** Keyed workloads for the early-scheduling experiments: commands carry an
    explicit key footprint instead of the readers-writers single variable.
    A command touches one uniformly random key (read or write per
    [write_pct]); with probability [cross_pct] it touches a second random
    key in the same mode — the cross-class traffic that forces a rendezvous
    when keys map to different worker classes.  [mis_pct] configures the
    optimistic delivery stream's mis-speculation rate (the percent chance
    each position starts an adjacent transposition; see
    [Psmr_early.Spec_stream]). *)
module Keyed = struct
  type spec = {
    keys : int;  (** key universe size *)
    write_pct : float;  (** 0..100: fraction of writes *)
    cross_pct : float;  (** 0..100: fraction of two-key commands *)
    cost : cost_class;  (** execution-cost class per command *)
    mis_pct : float;  (** 0..100: optimistic mis-speculation rate *)
  }

  (** The acceptance workload: large key universe, mostly single-key reads,
      so a per-worker class map keeps almost every command conflict-free. *)
  let low_conflict =
    { keys = 4096; write_pct = 10.0; cross_pct = 2.0; cost = Light; mis_pct = 0.0 }

  let pp ppf s =
    (* %g: fractional rates (e.g. the 0.1% mis sweep point) must not
       round into a neighbour — this string keys the bench memo. *)
    Format.fprintf ppf "%dk/%s/%g%%w/%g%%x/%g%%mis" s.keys
      (cost_label s.cost) s.write_pct s.cross_pct s.mis_pct

  (** Draw the next command footprint. *)
  let next_footprint spec rng =
    let k = Psmr_util.Rng.int rng spec.keys in
    let w = Psmr_util.Rng.below_percent rng spec.write_pct in
    if Psmr_util.Rng.below_percent rng spec.cross_pct then begin
      let k2 = Psmr_util.Rng.int rng spec.keys in
      [ (k, w); (k2, w) ]
    end
    else [ (k, w) ]
end

(** Zipf-distributed key sampler (exponent [theta]), for skewed KV workloads
    in the examples and extension experiments.  Uses Walker/Vose alias
    tables: O(n) setup, O(1) per sample regardless of n, so open-loop
    scenarios over 10^6+ keys pay the same per-draw cost as a uniform
    pick (the inverse-CDF binary search this replaces was O(log n) per
    sample and dominated generation cost at large universes). *)
module Zipf = struct
  type t = {
    prob : float array;  (** acceptance threshold per column *)
    alias : int array;  (** overflow rank per column *)
  }

  let create ~n ~theta =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    if theta < 0.0 then invalid_arg "Zipf.create: negative theta";
    let weights =
      Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta)
    in
    let total = Array.fold_left ( +. ) 0.0 weights in
    (* Scaled probabilities: mean 1.0, so columns split into donors
       (> 1) and receivers (< 1). *)
    let scaled = Array.map (fun w -> w *. float_of_int n /. total) weights in
    let prob = Array.make n 1.0 in
    let alias = Array.init n (fun i -> i) in
    let small = Stack.create () and large = Stack.create () in
    Array.iteri
      (fun i p -> if p < 1.0 then Stack.push i small else Stack.push i large)
      scaled;
    while (not (Stack.is_empty small)) && not (Stack.is_empty large) do
      let s = Stack.pop small and l = Stack.pop large in
      prob.(s) <- scaled.(s);
      alias.(s) <- l;
      scaled.(l) <- scaled.(l) -. (1.0 -. scaled.(s));
      if scaled.(l) < 1.0 then Stack.push l small else Stack.push l large
    done;
    (* Leftovers are 1.0 up to rounding: keep their default prob = 1. *)
    { prob; alias }

  let sample t rng =
    let n = Array.length t.prob in
    let i = Psmr_util.Rng.int rng n in
    let u = Psmr_util.Rng.float rng 1.0 in
    if u < t.prob.(i) then i else t.alias.(i)
end
