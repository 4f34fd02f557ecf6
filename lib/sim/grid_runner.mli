(** Deterministic fan-out of independent simulation points over OCaml 5
    domains — the {e only} module of [lib/sim] permitted to call [Domain]
    or [Unix] (enforced by the [platform-primitives] analysis rule).

    Discipline for callers: each mapped function must be self-contained —
    its own {!Engine}, its own RNG, its own probe sinks — and must not
    install global facade state ([Psmr_obs.Metrics.enable],
    [Psmr_fault.Plan.with_plan] with a non-empty schedule) while a parallel
    map is in flight.  Under that discipline every point computes exactly
    the virtual-time history it would compute sequentially, and because
    results are returned in input order the merged output is byte-identical
    for any [jobs]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f items] computes [f] on every item using [jobs] domains
    (default [1]: plain sequential [Array.map]; values [<= 1] and item
    counts [<= 1] never spawn).  Items are pre-assigned round-robin, so the
    split is deterministic; results are returned in input order.  If any
    [f] raises, the first exception (in spawn order) is re-raised after all
    domains have finished. *)

val memo : ?jobs:int -> ('a -> 'b) -> 'a list -> 'a -> 'b
(** [memo ~jobs f configs] computes [f] once on each distinct
    configuration of [configs] — configurations are compared
    structurally — fanned out with {!map}, and returns the lookup that
    serves every one of them (raising [Not_found] on any other value).
    Under the discipline above the results are those of a sequential run,
    so anything built from the lookup is identical for any [jobs]. *)

val wall_now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]) — for measuring the
    simulator's own speed.  Never use this inside simulated processes;
    virtual time comes from {!Engine.now}. *)
