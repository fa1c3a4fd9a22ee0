(* Order statistics over timing samples, beside Analysis.Summary's
   median. [quartiles] is Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method), the rule the benchmark's spreads are
   judged by, so the spreads printed here are the ones a reader
   recomputes from the result files. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = Analysis.Summary.median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

(* Nearest-rank percentile, [p] in (0, 100]: with fewer than 100 samples
   p99 is the maximum. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b
