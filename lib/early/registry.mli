(** Value-level dispatch over execution backends — the scheduling-family
    analogue of {!Psmr_cos.Registry}: every COS implementation (behind the
    generic scheduler runtime) plus the early-scheduling dispatcher, all
    as {!Psmr_sched.Sched_intf.BACKEND}s, selected by name from the CLIs
    and the benchmark harness. *)

open Psmr_platform

type backend =
  | Cos of Psmr_cos.Registry.impl
      (** The COS runtime ({!Psmr_sched.Scheduler.Make}) over the named
          implementation. *)
  | Early of Early_intf.config
      (** The class-map dispatcher ({!Dispatch.Make}). *)

val all : backend list
(** Every dispatchable backend: the COS registry's [all] plus [early] and
    [early-opt] with default class maps. *)

val to_string : backend -> string

val of_string : string -> backend option
(** Accepts every {!Psmr_cos.Registry.of_string} name, plus ["early"],
    ["early-opt"]/["early_opt"] and class-count forms ["early-<k>"] /
    ["early-opt-<k>"].  Round-trips with {!to_string}. *)

val is_optimistic : backend -> bool
(** Whether a harness should drive the optimistic delivery protocol. *)

val classes : backend -> int option

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
