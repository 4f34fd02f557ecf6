(** Correctness checks on one run's evidence.  Each returns [None] when it
    holds, or a description of the first violation. *)

let rec first_failure f i n =
  if i >= n then None
  else match f i with Some _ as e -> e | None -> first_failure f (i + 1) n

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | x :: a', y :: b' -> x = y && is_prefix a' b'
  | _ :: _, [] -> false

(** Per key, the writes each replica executed (undone speculation
    excluded) are prefixes of one sequence. *)
let key_order (o : Drive.outcome) =
  first_failure
    (fun k ->
      let seqs =
        Array.map
          (fun (r : Tagged_kv.record) -> List.rev r.writes.(k))
          o.records
      in
      let longest =
        Array.fold_left
          (fun acc s -> if List.compare_lengths s acc > 0 then s else acc)
          [] seqs
      in
      if Array.for_all (fun s -> is_prefix s longest) seqs then None
      else Some (Printf.sprintf "replicas disagree on key %d's write order" k))
    0
    (Array.length o.records.(0).writes)

(** Every replica that executed a command produced the same response, and
    it is the response the client received. *)
let responses (o : Drive.outcome) =
  first_failure
    (fun i ->
      let seen =
        Array.to_list o.records
        |> List.filter_map (fun (r : Tagged_kv.record) ->
               let d = Grow.get r.resp i in
               if d < 0 then None else Some d)
      in
      let client = o.client_resp.(i) in
      match seen with
      | [] when client >= 0 ->
          Some (Printf.sprintf "command %d: answered but never executed" i)
      | [] -> None
      | d :: rest ->
          if List.for_all (( = ) d) rest && (client < 0 || client = d) then None
          else Some (Printf.sprintf "command %d: responses differ" i))
    0 o.n

(** Replicas that executed the same number of commands, all they
    delivered, hold identical state. *)
let snapshots (o : Drive.outcome) =
  let n = Array.length o.snapshots in
  first_failure
    (fun a ->
      first_failure
        (fun b ->
          match (o.snapshots.(a), o.snapshots.(b)) with
          | Some sa, Some sb when o.executed.(a) = o.executed.(b) && sa <> sb ->
              Some
                (Printf.sprintf
                   "replicas %d and %d: same executed count, different state" a
                   b)
          | _ -> None)
        (a + 1) n)
    0 n

let run (o : Drive.outcome) ~bad_stages =
  [
    ("key_order", key_order o);
    ("responses", responses o);
    ("snapshots", snapshots o);
    ( "stages",
      match bad_stages with
      | [] -> None
      | i :: _ ->
          Some
            (Printf.sprintf
               "command %d: stages negative or not adding up to its latency" i)
    );
  ]
