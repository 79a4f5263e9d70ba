(** The benchmark's own statistics: nearest-rank percentiles, the rule for
    which tail percentile a sample supports, and the quartile spread that
    run-to-run bounds are judged by. *)

val sorted : float array -> float array
(** A sorted copy (ascending, [Float.compare]). *)

val rank : n:int -> float -> int
(** [rank ~n p] is the 1-based nearest rank of percentile [p] (in
    [(0, 100]]) among [n] samples: [ceil (p/100 * n)], at least 1. Raises
    [Invalid_argument] when [n < 1] or [p] is outside [(0, 100]]. *)

val percentile : float array -> float -> float
(** Nearest-rank percentile of an already sorted, non-empty sample. *)

val beyond : n:int -> float -> int
(** Samples strictly above the nearest-rank position of [p]: [n - rank]. *)

val reportable : n:int -> float -> bool
(** A percentile is reported only with at least ten samples beyond it. *)

val tail : float array -> (float * float) option
(** The highest of p90, p99 and p99.9 that {!reportable} allows on this
    sorted sample, with its value; [None] when not even p90 is. *)

val mean : float array -> float
(** Arithmetic mean; [0.] on an empty array. *)

val median : float array -> float
(** Median of an unsorted sample (mean of the middle two for even sizes).
    Raises [Invalid_argument] on an empty array. *)

val quartiles : float array -> float * float * float
(** First, second and third quartile of an unsorted sample by the
    exclusive method (the default of Python's
    [statistics.quantiles(values, n=4)]). Raises [Invalid_argument] with
    fewer than two samples. *)

val quartile_spread : float array -> float
(** [(q3 - q1) / median]: the run-to-run spread a metric's bound is
    compared with. Raises [Invalid_argument] when the median is 0. *)
