(* Facade evasion in a runtime layer (analyzed as lib/replica/...): the
   replica reaching the metric table directly is flagged like a COS
   would be; recording goes through the Probe vocabulary. *)

let enable m = Psmr_obs.Metrics.enable m

let ok () = Psmr_obs.Probe.requeue ()
