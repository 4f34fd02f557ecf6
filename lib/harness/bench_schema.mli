(** The schema of the benchmark report, BENCH_cos.json — the one validator
    behind both the bench binary (before it writes or diffs a report) and
    the test suite (on the committed file).

    It checks shape, not thresholds: every section and its required
    members are present with the right types; the grids that must have
    rows ([part_sim_kops], [open_loop] and each of its [steps],
    [sim_events_per_wall_second]) are non-empty; counts are non-negative;
    partition rows have [replicas >= partitions] and positive throughput;
    latency quantiles are ordered; drop rates lie in [0,1]; engine rows are
    named, positive, and their rate is their events over their wall time. *)

val validate : Psmr_util.Json.t -> (unit, string) result
(** [Error msg] names the JSON path of the first violation, e.g.
    ["$.open_loop[0].steps[2]: p50 0.4 exceeds p99 0.1"]. *)
