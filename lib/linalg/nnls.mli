(** Non-negative least squares (Lawson–Hanson active-set method).

    Solves [minimize ||a x - b||  subject to  x >= 0]. This is the inner
    solver of the IC-model fitting procedure: activities and preferences are
    physical byte rates and probabilities and must stay non-negative. *)

val solve : ?max_iter:int -> ?tol:float -> Mat.t -> Vec.t -> Vec.t
(** [solve a b] returns the NNLS solution. [max_iter] bounds the number of
    active-set changes after the warm start (default [3 * cols + 10]);
    [tol] is the dual-feasibility tolerance relative to the problem scale
    (default [1e-10]). The result always satisfies [x >= 0] even if the
    iteration limit is reached. *)

val solve_gram :
  ?max_iter:int -> ?tol:float -> ?factor:Chol.t -> Mat.t -> Vec.t -> Vec.t
(** [solve_gram g c] solves the same problem given the normal-equation data
    [g = aᵀa] and [c = aᵀb] directly, as in the model fit's per-bin
    activity subproblem. Warm-started from the full index set, dropping all
    non-positive coordinates at once: an interior optimum costs one solve,
    and otherwise the answer is bit-identical to a cold (x = 0) start
    whenever both end on the same passive set, at about two
    sub-factorizations instead of about [n]. On a Géant day 21–24% of the
    fit's block solves and 37–82% of the prior's bins are not interior.
    Cost: the full-set solve (a pair of triangular solves when [factor]
    is given), then one sub-solve per shrink or Lawson–Hanson step —
    1.0–1.1 on average for a non-interior Géant prior bin. A sub-solve
    gathers the passive sub-Gram into one fresh [np x np] matrix, factors
    it into a second ({!Chol.factorize_ridge_into}) and solves in place:
    O(np^3/3) flops and about [2 np^2] words. In a Géant daily refit these
    fallbacks are about a quarter of the activity solves and about half of
    the activity block's time.

    [factor], when given, must be {!full_factor}[ g]: it replaces the
    full-set solve's factorization with bit-identical results, saving
    O(n^3/3) per call for callers that hold [g] fixed. *)

val full_factor : Mat.t -> Chol.t
(** The ridged Cholesky factor (ridge [1e-12], as in the active-set
    subproblems) of the full normal system, to pass as [?factor]. *)

val kkt_violation : Mat.t -> Vec.t -> Vec.t -> float
(** [kkt_violation a b x] measures how far [x] is from satisfying the NNLS
    KKT conditions for [min ||a x - b||, x >= 0]: the maximum of (i) negative
    entries of [x], (ii) positive dual residual on the active set and (iii)
    absolute dual residual on the free set, scaled by the problem size.
    Near-zero means optimal; used by property tests. *)
