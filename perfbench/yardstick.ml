(* A fixed piece of work of the same kind as an estimation bin (a Gram
   product of a dense float matrix, then a Cholesky factorization of it),
   timed beside the program to read how fast the host is running at that
   moment. It is the benchmark's own code, so no change to the program
   moves it; a change to the compiler or its flags moves both.

   On a shared VM the speed of a fixed kernel swings by up to 2x between
   minutes; a bin's time divided by the yardstick timed next to it does
   not (over five seeds on a 2-vCPU VM: raw p50 quartile spread 0.26,
   divided 0.03). Stream timings are reported as that ratio times
   [nominal_us]: microseconds on a host where one yardstick takes
   [nominal_us], which is within what one took on that VM (95-220 us,
   depending on the minute). An 8 MiB pointer-chasing walk added to the
   yardstick made the ratio spread more, not less, so it stays compute
   only. *)

let nominal_us = 150.

let rows = 24
let cols = 240

let a =
  Array.init (rows * cols) (fun i -> 0.01 +. (float_of_int ((i * 7919) mod 1000) /. 1000.))

let sink = [| 0. |]

(* The yardstick allocates nothing, so no garbage collector work left
   over from the program lands in its time. *)
let g = Array.make (rows * rows) 0.

(* One Gram product [a a^T] (plus [cols] on the diagonal, so it is
   positive definite) factorized in place. *)
let run () =
  for i = 0 to rows - 1 do
    for j = 0 to i do
      let s = ref (if i = j then float_of_int cols else 0.) in
      for k = 0 to cols - 1 do
        s := !s +. (a.((i * cols) + k) *. a.((j * cols) + k))
      done;
      g.((i * rows) + j) <- !s
    done
  done;
  for j = 0 to rows - 1 do
    let d = ref g.((j * rows) + j) in
    for k = 0 to j - 1 do
      d := !d -. (g.((j * rows) + k) *. g.((j * rows) + k))
    done;
    let d = sqrt !d in
    g.((j * rows) + j) <- d;
    for i = j + 1 to rows - 1 do
      let s = ref g.((i * rows) + j) in
      for k = 0 to j - 1 do
        s := !s -. (g.((i * rows) + k) *. g.((j * rows) + k))
      done;
      g.((i * rows) + j) <- !s /. d
    done
  done;
  sink.(0) <- sink.(0) +. g.((rows * rows) - 1)

(* Wall-clock microseconds of one yardstick. *)
let time_us () =
  let t0 = Unix.gettimeofday () in
  run ();
  (Unix.gettimeofday () -. t0) *. 1e6

(* [scale times ~yard] divides each time by the median of the five
   yardsticks timed around it ([yard.(i)] was timed right after
   [times.(i)]) and multiplies by [nominal_us]. Pairing each time with the
   yardsticks next to it follows the host's speed changes within a run; a
   median of five ignores a yardstick that a preemption hit. *)
let scale times ~yard =
  let n = Array.length yard in
  Array.mapi
    (fun i t ->
      let lo = max 0 (i - 2) and hi = min n (i + 3) in
      t *. nominal_us /. Stats.median (Array.sub yard lo (hi - lo)))
    times
