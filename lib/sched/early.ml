(** Early scheduling — the alternative P-SMR architecture of the paper's
    related-work class (i) (Alchieri et al., "Early Scheduling in Parallel
    State Machine Replication", SoCC '18), specialized to readers-writers
    workloads like the paper's evaluation application.

    Where the COS approach decides {e late} (workers pick any ready command
    from a shared dependency structure), early scheduling decides at
    delivery time: the scheduler dispatches each read to one worker's
    private FIFO queue (round robin) and turns each write into a
    {e synchronization token} enqueued on {b every} queue.  A worker that
    pops a token joins a barrier: the last to arrive executes the write
    while the others wait.  Queue FIFO order then guarantees exactly the
    COS ordering constraints for the readers-writers conflict relation —
    with no shared scheduling structure at all, at the price of
    full-barrier writes and no work stealing between queues.

    Its workers are a {!Pool}, like the COS runtime's: a crashed worker's
    token is held for the core and fetched again first, by the core's
    replacement when the fault schedule respawns it.

    The ablation harness compares this against the three COS algorithms
    (see [Psmr_harness.Figures.early_vs_late]). *)

open Psmr_platform

module type RW_COMMAND = sig
  type t

  val is_write : t -> bool
  val pp : Format.formatter -> t -> unit
end

module Make (P : Platform_intf.S) (C : RW_COMMAND) = struct
  module MB = Mailbox.Make (P)
  module Latch = Latch.Make (P)
  module Pool = Pool.Make (P)

  (* [executed] opens once the last arriver has run the write. *)
  type barrier = { cmd : C.t; remaining : int P.Atomic.t; executed : Latch.t }

  type token = Read of C.t | Write_barrier of barrier

  type t = {
    queues : token MB.t array;
    held : token option array;
        (* a crashed worker's token, fetched again before its queue; only
           that core's worker reads or writes its cell *)
    workers : int;
    mutable next_queue : int;  (* round-robin cursor; scheduler-private *)
    pool : Pool.t;
  }

  let start ~workers ~execute () =
    if workers <= 0 then invalid_arg "Early.start: workers must be positive";
    let t =
      {
        queues = Array.init workers (fun _ -> MB.create ());
        held = Array.make workers None;
        workers;
        next_queue = 0;
        pool = Pool.create ~workers ();
      }
    in
    let fetch i =
      match t.held.(i - 1) with
      | Some _ as tok ->
          t.held.(i - 1) <- None;
          tok
      | None -> MB.take t.queues.(i - 1)
    in
    let run _ = function
      | Read c ->
          execute c;
          Pool.count_executed t.pool
      | Write_barrier b ->
          let arrivals_left = P.Atomic.fetch_and_add b.remaining (-1) in
          if arrivals_left = 1 then begin
            (* Last to arrive: every queue has passed all tokens that
               preceded this write, so it executes in isolation. *)
            execute b.cmd;
            Pool.count_executed t.pool;
            Latch.count_down b.executed
          end
          else Latch.wait b.executed
    in
    Pool.spawn t.pool ~fetch ~run
      ~requeue:(fun i tok -> t.held.(i - 1) <- Some tok);
    t

  (* Single-threaded caller, in delivery order (the "parallelizer"). *)
  let submit t c =
    Pool.count_submitted t.pool 1;
    if C.is_write c then begin
      let b =
        {
          cmd = c;
          remaining = P.Atomic.make t.workers;
          executed = Latch.create 1;
        }
      in
      Array.iter (fun q -> ignore (MB.put q (Write_barrier b) : bool)) t.queues
    end
    else begin
      let q = t.queues.(t.next_queue) in
      t.next_queue <- (t.next_queue + 1) mod t.workers;
      ignore (MB.put q (Read c) : bool)
    end

  let submitted t = Pool.submitted t.pool
  let executed t = Pool.executed t.pool
  let in_flight t = Pool.in_flight t.pool
  let drain ?poll t = Pool.drain ?poll t.pool

  let shutdown ?poll t =
    Pool.shutdown ?poll t.pool ~close:(fun () -> Array.iter MB.close t.queues)
end
