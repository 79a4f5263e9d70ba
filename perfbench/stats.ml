let sorted xs =
  let c = Array.copy xs in
  Array.sort Float.compare c;
  c

let rank ~n p =
  if n < 1 then invalid_arg "Stats.rank: empty sample";
  if not (p > 0. && p <= 100.) then invalid_arg "Stats.rank: p outside (0, 100]";
  (* p/100*n in floating point can land just above a whole number
     (99.9% of 1000 is 999.0000000000001): treat that as the number. *)
  let x = p *. float_of_int n /. 100. in
  let whole = Float.round x in
  let x = if Float.abs (x -. whole) <= 1e-9 *. Float.max 1. x then whole else Float.ceil x in
  max 1 (int_of_float x)

let percentile xs p = xs.(rank ~n:(Array.length xs) p - 1)

let beyond ~n p = n - rank ~n p

let reportable ~n p = n >= 1 && beyond ~n p >= 10

let tail xs =
  let n = Array.length xs in
  List.fold_left
    (fun acc p -> if reportable ~n p then Some (p, percentile xs p) else acc)
    None [ 90.; 99.; 99.9 ]

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: empty sample";
  let s = sorted xs in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Python's statistics.quantiles, method "exclusive": the i-th cut point
   sits at position i*(n+1)/4 (1-based), clamped to [1, n-1], linearly
   interpolated with exact integer arithmetic for the position. *)
let quartiles xs =
  let ld = Array.length xs in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let s = sorted xs in
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((s.(j - 1) *. (4. -. delta)) +. (s.(j) *. delta)) /. 4.
  in
  (cut 1, cut 2, cut 3)

let quartile_spread xs =
  let q1, _, q3 = quartiles xs in
  let med = median xs in
  if med = 0. then invalid_arg "Stats.quartile_spread: median is 0";
  (q3 -. q1) /. Float.abs med
