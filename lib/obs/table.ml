(* The declared metric table and the registries that record into it.

   Every counter and histogram is declared once, by name, at module
   initialisation ([counter] / [histogram], called from {!Probe}); a
   declaration is a slot index into each registry's storage.  A registry
   is one float array for the counters (exact for integer counts below
   2^53, and unboxed, so recording allocates nothing) plus one histogram
   per histogram slot.

   A registry is {e activated} ({!enable}) for the duration of a run and
   deactivated afterwards; every recorder is a no-op while no registry is
   active, so instrumented code pays one pointer read on the disabled
   path.  Recording never performs engine effects — counters and histogram
   buckets are plain mutations — so activating a registry cannot change
   virtual time, event order, or anything else a simulation computes.
   (The determinism test in [test/test_obs.ml] checks exactly this.)

   Virtual-time sources are injected: the harness passes [now] (typically
   [Engine.now]) and [track] (typically [Engine.running_tag]) when it
   builds the registry, so this library depends on no simulator
   internals.  All recorded durations are in the unit [now] returns —
   virtual seconds under the simulation platform, logical decision-point
   counts under the model-checking platform. *)

module H = Psmr_util.Histogram

type decl = { name : string; layer : string; hist : bool; index : int }
type counter = { slot : int; max : bool }
type histogram = int

(* The declarations, newest first. *)
let decls : decl list ref = ref []
let n_counters = ref 0
let n_histograms = ref 0

(* Set by the first [make]: its arrays are sized to the table as it stands. *)
let sealed = ref false

let declare name ~hist =
  if List.exists (fun d -> d.name = name) !decls then
    invalid_arg ("Metrics: duplicate metric " ^ name);
  if !sealed then invalid_arg ("Metrics: " ^ name ^ " declared after make");
  let layer =
    match String.index_opt name '.' with
    | Some i when i > 0 && i < String.length name - 1 -> String.sub name 0 i
    | _ -> invalid_arg ("Metrics: " ^ name ^ " is not <layer>.<name>")
  in
  let n = if hist then n_histograms else n_counters in
  let index = !n in
  incr n;
  decls := { name; layer; hist; index } :: !decls;
  index

let counter ?(kind = `Sum) name =
  { slot = declare name ~hist:false; max = kind = `Max }

let histogram name = declare name ~hist:true

let declared () =
  List.rev_map
    (fun d -> (d.name, if d.hist then `Histogram else `Counter))
    !decls

type t = {
  values : float array;
  hists : H.t array;
  now : unit -> float;
  track : unit -> int;
  trace : Trace.t option;
}

let make ?(now = fun () -> 0.0) ?(track = fun () -> 0) ?trace () =
  sealed := true;
  {
    values = Array.make !n_counters 0.0;
    hists = Array.init !n_histograms (fun _ -> H.create ());
    now;
    track;
    trace;
  }

(* The active registry.  A plain global: activation is a harness-level,
   whole-run decision, and the simulation platforms are single-threaded. *)
let active : t option ref = ref None

let enable t = active := Some t
let disable () = active := None
let trace t = t.trace
let now t = t.now
let track t = t.track

let incr c =
  match !active with
  | None -> ()
  | Some m -> m.values.(c.slot) <- m.values.(c.slot) +. 1.0

let add c n =
  match !active with
  | None -> ()
  | Some m ->
      let v = m.values.(c.slot) and x = float_of_int n in
      m.values.(c.slot) <-
        (if not c.max then v +. x else if x > v then x else v)

let add_float c x =
  match !active with
  | None -> ()
  | Some m -> m.values.(c.slot) <- m.values.(c.slot) +. x

let observe h x =
  match !active with None -> () | Some m -> H.record m.hists.(h) x

let get t c = t.values.(c.slot)
let hist t h = t.hists.(h)

let value t name =
  match List.find_opt (fun d -> d.name = name) !decls with
  | Some { hist = false; index; _ } -> t.values.(index)
  | Some { hist = true; _ } | None ->
      invalid_arg ("Metrics.value: no counter " ^ name)

(* The declarations of the layers [t] touched — those with a non-zero
   counter or a non-empty histogram — in declaration order. *)
let exported t =
  let touched d =
    if d.hist then H.count t.hists.(d.index) > 0
    else t.values.(d.index) <> 0.0
  in
  let layers =
    List.filter_map (fun d -> if touched d then Some d.layer else None) !decls
  in
  List.rev (List.filter (fun d -> List.mem d.layer layers) !decls)

(* The derived statistics of one histogram. *)
let histogram_stats h =
  [
    ("count", float_of_int (H.count h));
    ("p50", H.quantile h 0.50);
    ("p95", H.quantile h 0.95);
    ("p99", H.quantile h 0.99);
    ("p999", H.quantile h 0.999);
    ("mean", H.mean h);
    ("max", H.max_value h);
  ]

let assoc t =
  List.concat_map
    (fun d ->
      if not d.hist then [ (d.name, t.values.(d.index)) ]
      else
        List.map
          (fun (k, v) -> (d.name ^ "_" ^ k, v))
          (histogram_stats t.hists.(d.index)))
    (exported t)

(* Counters are exact; durations and histogram statistics keep nine
   significant digits, compact and deterministic across identical runs. *)
let to_json ?cost_model t =
  let module J = Psmr_util.Json in
  let section l =
    J.Obj
      (List.map
         (fun (n, v) ->
           (n, if Float.is_integer v && Float.abs v < 1e15 then J.Num v
               else J.digits 9 v))
         l)
  in
  let hists, counters = List.partition (fun d -> d.hist) (exported t) in
  J.Obj
    ([
       ( "counters",
         section (List.map (fun d -> (d.name, t.values.(d.index))) counters) );
       ( "latency_virtual_seconds",
         J.Obj
           (List.map
              (fun d -> (d.name, section (histogram_stats t.hists.(d.index))))
              hists) );
     ]
    @ Option.fold ~none:[]
        ~some:(fun cm -> [ ("cost_model_seconds", section cm) ])
        cost_model)
