(* The one module of lib/sim allowed to touch real parallelism and the wall
   clock (enforced by the platform-primitives analysis rule): everything
   else in the simulator is deterministic virtual-time code, and keeping the
   OS boundary in a single file is what makes that auditable.

   [map] fans independent grid points out over OCaml 5 domains.  Work is
   pre-assigned round-robin (domain [j] computes items [j], [j + jobs],
   ...), so no cross-domain coordination — and no shared mutable state —
   is needed beyond the disjoint slots of the results array.  Results come
   back in input order regardless of domain scheduling, which is what lets
   a parallel bench grid print byte-identical output to the sequential
   run.  [memo] is the grid every report builds on: each distinct
   configuration is simulated once, however many tables show it. *)

let wall_now = Unix.gettimeofday

let map ?(jobs = 1) f items =
  let n = Array.length items in
  if jobs <= 1 || n <= 1 then Array.map f items
  else begin
    let jobs = if jobs > n then n else jobs in
    let results = Array.make n None in
    let worker j () =
      let i = ref j in
      while !i < n do
        results.(!i) <- Some (f items.(!i));
        i := !i + jobs
      done
    in
    (* The spawning domain takes lane 0 itself; [jobs - 1] helpers cover
       the rest.  Joining collects helper exceptions: the first one wins,
       after every domain has stopped. *)
    let helpers = Array.init (jobs - 1) (fun j -> Domain.spawn (worker (j + 1))) in
    let first_exn = ref None in
    (try worker 0 () with e -> first_exn := Some e);
    Array.iter
      (fun d ->
        try Domain.join d
        with e -> if !first_exn = None then first_exn := Some e)
      helpers;
    (match !first_exn with Some e -> raise e | None -> ());
    Array.map
      (function
        | Some r -> r
        | None -> invalid_arg "Grid_runner.map: missing result")
      results
  end

let memo ?jobs f configs =
  let distinct = Array.of_list (List.sort_uniq compare configs) in
  let results = map ?jobs f distinct in
  let table = Hashtbl.create (Array.length distinct) in
  Array.iteri (fun i c -> Hashtbl.replace table c results.(i)) distinct;
  Hashtbl.find table
