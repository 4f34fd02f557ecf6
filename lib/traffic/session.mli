(** Bounded session pool: a large logical client population (session
    ids + per-session RNG streams) at bounded memory, with FIFO
    eviction of resident streams.  Fully deterministic: the pool is a
    pure function of [(seed, touch order)]. *)

type t

val create : ?seed:int64 -> ?max_live:int -> sessions:int -> unit -> t
(** [sessions] is the logical population (may be millions); at most
    [max_live] per-session streams (default 65 536) are resident at
    once. *)

val sessions : t -> int

val draw : t -> int
(** Session id of the next arrival: uniform over the population, from
    the pool's own pick stream. *)

val stream : t -> int -> Psmr_util.Rng.t
(** The session's private RNG stream, materialized on first touch.  An
    evicted session re-derives (restarts) its stream when touched
    again.
    @raise Invalid_argument when the id is out of range. *)

val live : t -> int
(** Resident streams right now (≤ [max_live]). *)

val touched : t -> int
(** Streams materialized so far, evictions included. *)

val evictions : t -> int
