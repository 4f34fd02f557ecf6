(** Descriptive statistics over float samples.

    Used to summarize latency distributions and throughput runs. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summary_of_array : float array -> summary
(** Computes a summary; the input array is sorted in place.
    @raise Invalid_argument on an empty array. *)

val mean : float array -> float

val stddev : float array -> float
(** Sample standard deviation (n-1 denominator); 0 for fewer than 2
    samples. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [\[0,100\]] over a sorted array, using
    linear interpolation between closest ranks. *)
