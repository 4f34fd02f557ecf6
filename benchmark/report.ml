(** End-to-end metrics from per-command arrival and completion times.

    A command is [shed] (refused at the full offered queue), completed
    ([ret] is its [call_batch] return), or incomplete when the run stopped
    ([ret] is [nan]).  Shed and incomplete commands both count as failed and
    both miss the SLO.  An incomplete command still has a latency: its age
    at the end of the run, a lower bound flagged as [censored], so a
    saturated step reports large latencies rather than none.  Quantiles are
    exact nearest-rank values over the sorted samples. *)

type samples = {
  due : float array;
  ret : float array;  (** [nan]: not returned by [t_end] *)
  shed : bool array;
  t_end : float;
}

let completed s i = (not s.shed.(i)) && not (Float.is_nan s.ret.(i))

(* Censored latency for incomplete commands; none for shed ones. *)
let latency s i =
  if s.shed.(i) then None
  else if completed s i then Some (s.ret.(i) -. s.due.(i))
  else Some (s.t_end -. s.due.(i))

type window = {
  arrivals : int;  (** commands due in the window *)
  failed : int;  (** ... shed or incomplete *)
  censored : int;  (** ... incomplete: latency is a lower bound *)
  lat : float array;  (** sorted latencies, censored included *)
  min_censored : float;  (** smallest censored latency; [infinity] if none *)
  kops : float;  (** completions inside the window per second, thousands *)
  growth : int;  (** outstanding commands at its end minus at its start *)
}

let outstanding s t =
  let k = ref 0 in
  Array.iteri
    (fun i d ->
      if d <= t && not s.shed.(i) then incr k;
      if completed s i && s.ret.(i) <= t then decr k)
    s.due;
  !k

let window s (lo, hi) =
  let lat = Psmr_util.Vec.create () in
  let arrivals = ref 0 and failed = ref 0 and censored = ref 0 in
  let min_censored = ref infinity and done_in = ref 0 in
  Array.iteri
    (fun i d ->
      if completed s i && s.ret.(i) >= lo && s.ret.(i) < hi then incr done_in;
      if d >= lo && d < hi then begin
        incr arrivals;
        if not (completed s i) then incr failed;
        match latency s i with
        | None -> ()
        | Some l ->
            Psmr_util.Vec.push lat l;
            if not (completed s i) then begin
              incr censored;
              min_censored := Float.min !min_censored l
            end
      end)
    s.due;
  let lat = Psmr_util.Vec.to_array lat in
  Array.sort Float.compare lat;
  {
    arrivals = !arrivals;
    failed = !failed;
    censored = !censored;
    lat;
    min_censored = !min_censored;
    kops = float_of_int !done_in /. (hi -. lo) /. 1e3;
    growth = outstanding s hi - outstanding s lo;
  }

(** Index of the nearest-rank [q]-quantile in [n] sorted samples. *)
let rank q n = max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)

(** Quantile of a window's latencies, with whether it is only a lower
    bound (it reaches a censored sample); [None] when empty. *)
let quantile w q =
  let n = Array.length w.lat in
  if n = 0 then None
  else
    let v = w.lat.(rank q n) in
    Some (v, v >= w.min_censored)

let meets_slo w =
  let arrivals = float_of_int w.arrivals in
  (match quantile w 0.99 with
  | Some (p99, _) -> p99 <= Pinned.slo_p99
  | None -> false)
  && float_of_int w.failed <= Pinned.slo_failed *. arrivals
  && float_of_int w.growth <= Pinned.slo_backlog *. arrivals

(** Offered ops/s of the last step of the passing prefix: every step up
    to it meets the SLO.  0 when the first step fails. *)
let max_rate_slo steps =
  let rec go best = function
    | (level, w) :: rest when meets_slo w -> go level rest
    | _ -> best
  in
  go 0.0 steps

(** Longest interval overlapping the window [(lo, hi)] in which some
    command was outstanding and none completed.  Incomplete commands are
    outstanding until [t_end], so a wedge that never recovers counts up to
    the end of the run, also from a later window whose own arrivals were
    all shed. *)
let unavail s (lo, hi) =
  let idx =
    List.init (Array.length s.due) Fun.id
    |> List.filter (fun i -> not s.shed.(i))
    |> Array.of_list
  in
  let fin i = if completed s i then s.ret.(i) else s.t_end in
  Array.sort (fun a b -> Float.compare (fin a) (fin b)) idx;
  let n = Array.length idx in
  (* Earliest arrival among the commands finishing at or after position k:
     inside a gap between completions only those are outstanding. *)
  let min_due = Array.make (n + 1) infinity in
  for k = n - 1 downto 0 do
    min_due.(k) <- Float.min min_due.(k + 1) s.due.(idx.(k))
  done;
  let best = ref 0.0 in
  for k = 0 to n - 1 do
    let prev = if k = 0 then neg_infinity else fin idx.(k - 1) in
    let start = Float.max prev min_due.(k) in
    if start < hi && fin idx.(k) > lo then
      best := Float.max !best (fin idx.(k) -. start)
  done;
  !best

type metric = {
  name : string;
  value : float option;  (** [None]: undefined for this workload *)
  unit_ : string;
  lower_bound : bool;  (** a quantile reaching a censored sample *)
}

let metric ?(lower_bound = false) name unit_ value =
  { name; value; unit_; lower_bound }

(** p999 needs this many samples to have ten beyond it. *)
let p999_min_samples = 10_000

let count name n = metric name "count" (Some (float_of_int n))

let ms_quantile name w q =
  match quantile w q with
  | Some (v, lb) -> metric ~lower_bound:lb name "ms" (Some (v *. 1e3))
  | None -> metric name "ms" None

(** The deterministic end-to-end metrics of one run, then one line group
    per ladder step. *)
let virtual_metrics (wl : Workloads.t) s =
  let base = window s wl.base and stress = window s wl.stress in
  let steps =
    Array.to_list (Workloads.steps wl)
    |> List.map (fun (level, win) -> (level, window s win))
  in
  let attempted = Array.length s.due in
  let failed = ref 0 in
  for i = 0 to attempted - 1 do
    if not (completed s i) then incr failed
  done;
  let head =
    [
      ms_quantile "p50_ms.base" base 0.5;
      ms_quantile "p99_ms.base" base 0.99;
      ms_quantile "p50_ms.stress" stress 0.5;
      ms_quantile "p99_ms.stress" stress 0.99;
      (if Array.length stress.lat >= p999_min_samples then
         ms_quantile "p999_ms.stress" stress 0.999
       else metric "p999_ms.stress" "ms" None);
      metric "max_kops_slo" "kops"
        (if wl.ladder then Some (max_rate_slo steps /. 1e3) else None);
      metric "peak_kops" "kops"
        (Some
           (List.fold_left (fun acc w -> Float.max acc w.kops) 0.0
              (base :: stress :: List.map snd steps)));
      metric "failed_pct" "%"
        (Some
           (100.0 *. float_of_int !failed /. float_of_int (max 1 attempted)));
      metric "unavail_ms" "ms" (Some (unavail s wl.stress *. 1e3));
      count "samples.base" (Array.length base.lat);
      count "samples.stress" (Array.length stress.lat);
      count "censored.base" base.censored;
      count "censored.stress" stress.censored;
    ]
  in
  let step_lines =
    List.concat
      (List.mapi
         (fun i (level, w) ->
           let p = Printf.sprintf "step%d." i in
           [
             metric (p ^ "offered_kops") "kops" (Some (level /. 1e3));
             metric (p ^ "kops") "kops" (Some w.kops);
             ms_quantile (p ^ "p99_ms") w 0.99;
             count (p ^ "failed") w.failed;
             count (p ^ "censored") w.censored;
             metric (p ^ "slo") "bool"
               (Some (if meets_slo w then 1.0 else 0.0));
           ])
         steps)
  in
  (head @ step_lines, attempted, !failed)
