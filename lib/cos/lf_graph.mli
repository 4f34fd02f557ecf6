(** The lock-free dependency graph of the paper's Algorithms 5–7, shared by
    [Lockfree], [Indexed] and the checker's planted variants: the atomic
    state chain [Ins -> Wtg -> Rdy -> Exe -> Rmd], [testReady], helped
    physical removal, the nonblocking [get]/[remove] and the two-semaphore
    blocking layer.  A client brings only its insert (how the new node's
    edges are found, where it is appended) and its insert-side state [ext].

    Every function issues the [P.Atomic], [P.work] and semaphore calls of
    the algorithm in a fixed order: simulated time and the checker's
    decision points sit on those calls. *)

open Psmr_platform

module Make (P : Platform_intf.S) (C : Cos_intf.COMMAND) : sig
  type status = Ins | Wtg | Rdy | Exe | Rmd

  type node = {
    cmd : C.t;
    st : status P.Atomic.t;
    dep_on : node list P.Atomic.t;
    dep_me : node list P.Atomic.t;
    nxt : node option P.Atomic.t;
    mutable delivered_at : float;
    mutable ready_at : float;
  }

  type cmd = C.t
  type handle = node

  type 'x graph = {
    first : node option P.Atomic.t;
    space : P.Semaphore.t;
    ready : P.Semaphore.t;
    size : int P.Atomic.t;
    closed : bool P.Atomic.t;
    close_tokens : int;
    max_size : int;
    ext : 'x;
  }

  val create :
    ext:(int -> 'x) -> ?max_size:int -> ?worker_bound:int -> unit -> 'x graph
  (** [ext max_size] builds the client's state. *)

  (** {1 Building blocks for an insert} *)

  val node : ?st:status -> C.t -> delivered_at:float -> node
  (** A fresh, unlinked node in state [st] (default [Ins]). *)

  val scan : 'x graph -> int ref -> (node -> unit) -> node option
  (** Walk the list, unlinking every [Rmd] node and calling the function on
      each live one in arrival order; counts visits and returns the last
      live node. *)

  val add_edge : older:node -> node -> unit
  val append : 'x graph -> node option -> node -> unit
  (** Link the node after the given one ([None]: as the head) and count it. *)

  val publish : node -> visits:int -> int
  (** [Ins -> Wtg], then the final [test_ready]. *)

  val test_ready : node -> int
  (** Algorithm 7, testReady; returns the promotions (0 or 1) to signal. *)

  val signal : 'x graph -> int -> unit
  (** Release one [ready] token per promotion. *)

  val insert :
    'x graph -> ('x graph -> C.t -> delivered_at:float -> int) -> C.t -> unit
  (** Algorithm 5's insert around the given graph insert. *)

  (** {1 The {!Cos_intf.S} operations} *)

  val command : node -> C.t
  val get : 'x graph -> node option
  val lf_remove : node -> int * int
  (** Logical removal; returns the promotions and the dependents examined. *)

  val remove : 'x graph -> node -> unit
  val requeue : 'x graph -> node -> unit
  val close : 'x graph -> unit
  val pending : 'x graph -> int

  val invariant :
    ?extra:(strict:bool -> node list -> (string -> unit) -> unit) ->
    ?strict:bool -> 'x graph -> string list
  (** [extra] adds the client's checks over the linked nodes. *)
end
