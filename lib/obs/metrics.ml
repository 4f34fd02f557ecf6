(* The metrics facade: the declared table and its registries ({!Table}),
   plus the benchmark's read-only view over the probe vocabulary. *)

include Table
include Probe.View
