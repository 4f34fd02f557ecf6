(** The declared metric table: every counter and histogram is named once,
    [<layer>.<name>], by one declaration at module initialisation, and a
    registry holds one slot per declaration.

    A registry is built by the harness with injected virtual-time sources,
    {!enable}d for the duration of one run, and {!disable}d afterwards.
    While enabled, the recorders ({!incr}, {!add}, {!add_float},
    {!observe}) write into it; while no registry is enabled each recorder
    is a no-op costing one pointer read.  Recording is plain mutation —
    never an engine effect — so enabling metrics cannot change what a
    simulation computes.  Instrumented code records through the probe
    vocabulary ({!Probe}), which owns the declarations; this module is
    re-exported as {!Metrics}. *)

(** {1 Declaring} *)

type counter
type histogram

val counter : ?kind:[ `Sum | `Max ] -> string -> counter
(** Declare one counter.  A [`Sum] counter (the default) accumulates what
    is added to it; a [`Max] counter keeps the largest value added.
    @raise Invalid_argument on a name declared before, a name that is not
    [<layer>.<name>], or a declaration after the first {!make}. *)

val histogram : string -> histogram
(** Declare one virtual-time histogram; same rules as {!counter}. *)

val declared : unit -> (string * [ `Counter | `Histogram ]) list
(** Every declared name, in declaration order. *)

(** {1 Registries} *)

type t

val make :
  ?now:(unit -> float) -> ?track:(unit -> int) -> ?trace:Trace.t -> unit -> t
(** [now] supplies virtual time (e.g. [Engine.now eng]); [track] supplies
    the identifier of the currently running process (e.g.
    [Engine.running_tag eng]), used as the trace thread id.  Both default
    to constants, which keeps counter-only uses trivial.  [trace] attaches
    a Chrome-trace buffer; when absent, trace probes are no-ops even while
    the registry is enabled. *)

val active : t option ref
(** The registry recorders write into, when any.  Prefer {!enable} /
    {!disable} over writing this directly. *)

val enable : t -> unit
val disable : unit -> unit
val trace : t -> Trace.t option
val now : t -> unit -> float
val track : t -> unit -> int

(** {1 Recording into the active registry} *)

val incr : counter -> unit

val add : counter -> int -> unit
(** Add to a [`Sum] counter; raise a [`Max] counter to the value. *)

val add_float : counter -> float -> unit
(** Add a duration to a [`Sum] counter. *)

val observe : histogram -> float -> unit

(** {1 Reading} *)

val get : t -> counter -> float
val hist : t -> histogram -> Psmr_util.Histogram.t

val value : t -> string -> float
(** The counter declared under a name, touched or not.
    @raise Invalid_argument when no counter has that name. *)

val assoc : t -> (string * float) list
(** Flat numeric snapshot of the layers the run touched (a layer is
    touched when one of its counters is non-zero or one of its histograms
    non-empty): each counter, plus [_count]/[_p50]/[_p95]/[_p99]/[_p999]/
    [_mean]/[_max] per histogram, in declaration order. *)

val to_json : ?cost_model:(string * float) list -> t -> Psmr_util.Json.t
(** JSON document with ["counters"] and ["latency_virtual_seconds"]
    sections over the layers {!assoc} lists, plus ["cost_model_seconds"]
    when [cost_model] is given.  Counters are exact, other values keep nine
    significant digits.  Deterministic: identical runs produce equal
    values. *)
