(** The one backend registry: every execution backend the repository can
    run — the paper's COS implementations behind the generic scheduler
    runtime, and the early-scheduling class-map dispatcher — named, parsed
    and built here, for the CLIs, the harnesses, the replica layer and the
    benchmark. *)

open Psmr_platform

(** The COS implementations. *)
type impl =
  | Coarse  (** Algorithm 2: one monitor for the whole graph *)
  | Fine  (** Algorithms 3-4: hand-over-hand per-node locks *)
  | Lockfree  (** Algorithms 5-7: nonblocking graph + semaphore layer *)
  | Fifo  (** sequential baseline *)
  | Striped of int  (** granular locks: segment capacity per lock *)
  | Indexed  (** lock-free graph with key-indexed O(|footprint|) insert *)

type backend =
  | Cos of impl
      (** The COS runtime ({!Psmr_sched.Scheduler.Make}) over the named
          implementation. *)
  | Early of Early_intf.config
      (** The class-map dispatcher ({!Dispatch.Make}). *)

val paper : impl list
(** The paper's three algorithms, in presentation order — what the
    reproduced figures compare. *)

val all : backend list
(** Every dispatchable backend: the paper's three algorithms, the
    sequential baseline, the striped extension (default capacity), the
    key-indexed extension, then [early] and [early-opt] with default class
    maps. *)

val to_string : backend -> string

val of_string : string -> backend option
(** Accepts "coarse[-grained]", "fine[-grained]", "lockfree"/"lock-free",
    "fifo"/"sequential", "striped", "striped-<k>", "indexed", "early",
    "early-opt" and the class-count forms "early-<k>" / "early-opt-<k>",
    ignoring case and reading ['_'] as ['-'].  Round-trips with
    {!to_string}. *)

val is_optimistic : backend -> bool
(** Whether a harness should drive the optimistic delivery protocol. *)

val classes : backend -> int option

val instantiate_cos :
  impl ->
  (module Platform_intf.S) ->
  (module Psmr_cos.Cos_intf.KEYED_COMMAND with type t = 'c) ->
  (module Psmr_cos.Cos_intf.S with type cmd = 'c)
(** The bare named COS over commands with key footprints (every
    implementation but {!Indexed} reads only the conflict relation). *)

val instantiate :
  backend ->
  (module Platform_intf.S) ->
  (module Psmr_cos.Cos_intf.KEYED_COMMAND with type t = 'c) ->
  (module Psmr_sched.Sched_intf.BACKEND with type cmd = 'c)
(** First-class backend for the given platform and command type.  The
    [Early] case bakes the configured class count into [start]; the
    generic [BACKEND] surface is conservative-only, so [optimistic] is
    ignored here — harnesses that drive the optimistic protocol use
    {!Dispatch.Make} directly. *)
