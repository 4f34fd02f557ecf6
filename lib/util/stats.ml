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

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let stddev a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean a in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a in
    sqrt (ss /. float_of_int (n - 1))
  end

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if q <= 0.0 then sorted.(0)
  else if q >= 100.0 then sorted.(n - 1)
  else begin
    let rank = q /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
    end
  end

let summary_of_array a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.summary_of_array: empty array";
  Array.sort compare a;
  {
    count = n;
    mean = mean a;
    stddev = stddev a;
    min = a.(0);
    max = a.(n - 1);
    p50 = percentile a 50.0;
    p90 = percentile a 90.0;
    p99 = percentile a 99.0;
  }
