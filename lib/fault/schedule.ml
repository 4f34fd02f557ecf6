(** Fault schedules: the declarative description of what should go wrong,
    when, parsed from the textual spec accepted by [--faults] everywhere
    (see docs/FAULTS.md).

    A schedule is data only — nothing here touches an engine or a clock.
    Arming a schedule (building a {!Plan.t} with a virtual-time source and
    the schedule's seed) is what turns it into decisions; the same schedule
    armed twice over the same run produces the same decisions, which is the
    whole replay-from-seed story.

    Spec syntax: comma-separated clauses, order-insensitive except that a
    repeated scalar clause keeps the last value.

    {v
      seed=N                   fault RNG seed (default 1)
      net-loss=P               drop each message with probability P%
      net-dup=P                duplicate each message with probability P%
      net-delay=P:D            delay each message by D extra seconds, P%
      worker-crash=W@T         worker W dies at virtual time T
      worker-crash=W@T+R       ... and a replacement spawns R seconds later
      worker-stall=W@T:D       worker W pauses D seconds, once, after T
      worker-slow=W@T:X        worker W pays X extra seconds per command
                               from virtual time T on
      replica-crash=R@T        replica R crash-stops at virtual time T
    v}

    A replica crash has no [+D] restart delay: no deployment can restart a
    replica, so a clause that asks for one is a parse error. *)

type worker_fault =
  | Crash of { respawn_after : float option }
  | Stall of float  (** one-shot pause, seconds *)
  | Slow of float  (** extra seconds per command, permanent from [at] *)

type worker_event = { worker : int; at : float; fault : worker_fault }

type replica_event = { replica : int; at : float }

type net = {
  loss_pct : float;
  dup_pct : float;
  delay_pct : float;
  delay : float;  (** extra seconds added when the delay fault fires *)
}

type t = {
  seed : int64;
  net : net;
  workers : worker_event list;  (** sorted by [at], stable *)
  replicas : replica_event list;  (** sorted by [at], stable *)
}

let no_net = { loss_pct = 0.0; dup_pct = 0.0; delay_pct = 0.0; delay = 0.0 }
let empty = { seed = 1L; net = no_net; workers = []; replicas = [] }

let has_net_faults t =
  t.net.loss_pct > 0.0 || t.net.dup_pct > 0.0 || t.net.delay_pct > 0.0

let is_empty t = (not (has_net_faults t)) && t.workers = [] && t.replicas = []

(* ------------------------------------------------------------------ *)
(* Parsing.                                                            *)

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let parse_float what s =
  match float_of_string_opt (String.trim s) with
  | Some f when f >= 0.0 -> Ok f
  | Some _ -> err "%s: must be non-negative: %S" what s
  | None -> err "%s: not a number: %S" what s

let parse_pct what s =
  let* p = parse_float what s in
  if p > 100.0 then err "%s: percentage above 100: %S" what s else Ok p

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some i when i >= 0 -> Ok i
  | Some _ -> err "%s: must be non-negative: %S" what s
  | None -> err "%s: not an integer: %S" what s

(* [W@T], [W@T+R] or [W@T:D] — the id, the firing time and an optional
   suffix introduced by [+] (a respawn delay) or [:] (a magnitude). *)
let parse_event what v =
  match String.index_opt v '@' with
  | None -> err "%s: expected <id>@<time>, got %S" what v
  | Some i ->
      let* id = parse_int what (String.sub v 0 i) in
      let rest = String.sub v (i + 1) (String.length v - i - 1) in
      let split_on c =
        match String.index_opt rest c with
        | None -> (rest, None)
        | Some j ->
            ( String.sub rest 0 j,
              Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
      in
      let time_s, plus = split_on '+' in
      let time_s, colon = if plus = None then split_on ':' else (time_s, None) in
      let* at = parse_float what time_s in
      let* suffix =
        match (plus, colon) with
        | None, None -> Ok None
        | Some s, _ | _, Some s ->
            let* f = parse_float what s in
            Ok (Some f)
      in
      Ok (id, at, plus <> None, suffix)

let parse_clause acc clause =
  match String.index_opt clause '=' with
  | None -> err "fault spec: expected key=value, got %S" clause
  | Some i ->
      let key = String.trim (String.sub clause 0 i) in
      let v = String.trim (String.sub clause (i + 1) (String.length clause - i - 1)) in
      (match key with
      | "seed" -> (
          match Int64.of_string_opt v with
          | Some s -> Ok { acc with seed = s }
          | None -> err "seed: not an integer: %S" v)
      | "net-loss" ->
          let* p = parse_pct key v in
          Ok { acc with net = { acc.net with loss_pct = p } }
      | "net-dup" ->
          let* p = parse_pct key v in
          Ok { acc with net = { acc.net with dup_pct = p } }
      | "net-delay" -> (
          match String.index_opt v ':' with
          | None -> err "net-delay: expected <pct>:<seconds>, got %S" v
          | Some j ->
              let* p = parse_pct key (String.sub v 0 j) in
              let* d =
                parse_float key (String.sub v (j + 1) (String.length v - j - 1))
              in
              Ok { acc with net = { acc.net with delay_pct = p; delay = d } })
      | "worker-crash" ->
          let* w, at, _, suffix = parse_event key v in
          let ev = { worker = w; at; fault = Crash { respawn_after = suffix } } in
          Ok { acc with workers = ev :: acc.workers }
      | "worker-stall" ->
          let* w, at, plus, suffix = parse_event key v in
          if plus then err "worker-stall: expected <id>@<t>:<dur>, got %S" v
          else
            let* d =
              match suffix with
              | Some d -> Ok d
              | None -> err "worker-stall: missing duration in %S" v
            in
            Ok { acc with workers = { worker = w; at; fault = Stall d } :: acc.workers }
      | "worker-slow" ->
          let* w, at, plus, suffix = parse_event key v in
          if plus then err "worker-slow: expected <id>@<t>:<extra>, got %S" v
          else
            let* x =
              match suffix with
              | Some x -> Ok x
              | None -> err "worker-slow: missing extra cost in %S" v
            in
            Ok { acc with workers = { worker = w; at; fault = Slow x } :: acc.workers }
      | "replica-crash" ->
          let* r, at, _, suffix = parse_event key v in
          if suffix <> None then
            err "replica-crash: expected <id>@<t> (a crashed replica never \
                 restarts), got %S" v
          else Ok { acc with replicas = { replica = r; at } :: acc.replicas }
      | _ -> err "fault spec: unknown clause %S" key)

let by_time_stable get_at l =
  List.stable_sort (fun a b -> compare (get_at a) (get_at b)) l

let parse spec =
  let clauses =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let* t = List.fold_left (fun acc c -> Result.bind acc (fun a -> parse_clause a c)) (Ok empty) clauses in
  Ok
    {
      t with
      workers = by_time_stable (fun (e : worker_event) -> e.at) (List.rev t.workers);
      replicas =
        by_time_stable (fun (e : replica_event) -> e.at) (List.rev t.replicas);
    }

let parse_exn spec =
  match parse spec with Ok t -> t | Error e -> invalid_arg ("Schedule.parse: " ^ e)

(* ------------------------------------------------------------------ *)
(* Canonical form (re-parseable; used in exports and replay hints).    *)

let num f = Printf.sprintf "%.9g" f

let to_string t =
  let b = Buffer.create 64 in
  let add fmt = Printf.ksprintf (fun s ->
      if Buffer.length b > 0 then Buffer.add_char b ',';
      Buffer.add_string b s) fmt
  in
  add "seed=%Ld" t.seed;
  if t.net.loss_pct > 0.0 then add "net-loss=%s" (num t.net.loss_pct);
  if t.net.dup_pct > 0.0 then add "net-dup=%s" (num t.net.dup_pct);
  if t.net.delay_pct > 0.0 then
    add "net-delay=%s:%s" (num t.net.delay_pct) (num t.net.delay);
  List.iter
    (fun (e : worker_event) ->
      match e.fault with
      | Crash { respawn_after = None } ->
          add "worker-crash=%d@%s" e.worker (num e.at)
      | Crash { respawn_after = Some r } ->
          add "worker-crash=%d@%s+%s" e.worker (num e.at) (num r)
      | Stall d -> add "worker-stall=%d@%s:%s" e.worker (num e.at) (num d)
      | Slow x -> add "worker-slow=%d@%s:%s" e.worker (num e.at) (num x))
    t.workers;
  List.iter
    (fun (e : replica_event) -> add "replica-crash=%d@%s" e.replica (num e.at))
    t.replicas;
  Buffer.contents b
