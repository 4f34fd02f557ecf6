(** Metrics registry: the declared table of counters and virtual-time
    latency histograms ({!Table}), plus the read-only benchmark view
    ({!Probe.View}). *)

include module type of struct
  include Table
end

include module type of struct
  include Probe.View
end
