(** Chrome trace-event buffer.

    Collects complete-slice events ([ph = "X"]) during a simulation and
    exports them as trace-event JSON loadable in Perfetto or
    [chrome://tracing].  Timestamps are virtual seconds on input and are
    exported in microseconds, the unit the trace-event format specifies.

    The buffer is bounded ([limit], default one million events) so an
    accidentally long traced run degrades gracefully: events past the limit
    are counted in {!dropped} and reported in the exported metadata rather
    than silently discarded. *)

type event = {
  name : string;
  pid : int;
  tid : int;
  ts : float;  (* virtual seconds *)
  dur : float;  (* virtual seconds *)
}

type t = {
  limit : int;
  mutable events : event list;  (* reverse recording order *)
  mutable count : int;
  mutable dropped : int;
  mutable thread_names : ((int * int) * string) list;
  mutable process_names : (int * string) list;
}

let create ?(limit = 1_000_000) () =
  if limit <= 0 then invalid_arg "Trace.create: limit must be positive";
  {
    limit;
    events = [];
    count = 0;
    dropped = 0;
    thread_names = [];
    process_names = [];
  }

let slice t ~name ~pid ~tid ~ts ~dur =
  if t.count >= t.limit then t.dropped <- t.dropped + 1
  else begin
    t.events <- { name; pid; tid; ts; dur } :: t.events;
    t.count <- t.count + 1
  end

let set_thread_name t ~pid ~tid name =
  t.thread_names <-
    ((pid, tid), name) :: List.remove_assoc (pid, tid) t.thread_names

let set_process_name t ~pid name =
  t.process_names <- (pid, name) :: List.remove_assoc pid t.process_names

let count t = t.count
let dropped t = t.dropped

(* Export order is recording order, with metadata first; name metadata is
   emitted only for tracks that actually carry events, so an unused core
   never shows as an empty track.  Stamps are in microseconds, to the
   nanosecond. *)
let to_json t =
  let module J = Psmr_util.Json in
  let events = List.rev t.events in
  let seen_threads =
    List.sort_uniq compare (List.map (fun e -> (e.pid, e.tid)) events)
  in
  let seen_pids = List.sort_uniq compare (List.map fst seen_threads) in
  let meta kind names key (pid, tid) =
    Option.map
      (fun name ->
        J.Obj
          [
            ("name", J.Str kind); ("ph", J.Str "M"); ("pid", J.int pid);
            ("tid", J.int tid); ("args", J.Obj [ ("name", J.Str name) ]);
          ])
      (List.assoc_opt key names)
  in
  let slice e =
    J.Obj
      [
        ("name", J.Str e.name); ("ph", J.Str "X"); ("pid", J.int e.pid);
        ("tid", J.int e.tid); ("ts", J.fixed 3 (e.ts *. 1e6));
        ("dur", J.fixed 3 (e.dur *. 1e6));
      ]
  in
  J.to_string
    (J.Obj
       [
         ( "traceEvents",
           J.Arr
             (List.filter_map
                (fun pid -> meta "process_name" t.process_names pid (pid, 0))
                seen_pids
             @ List.filter_map
                 (fun k -> meta "thread_name" t.thread_names k k)
                 seen_threads
             @ List.map slice events) );
         ("displayTimeUnit", J.Str "ms");
         ( "otherData",
           J.Obj [ ("dropped_events", J.Str (string_of_int t.dropped)) ] );
       ])
  ^ "\n"
